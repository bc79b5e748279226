package wal

import (
	"io"
	"sync"
	"time"
)

// DefaultGroupCommit is how many records a Writer batches before it
// syncs. Group commit amortizes the (modeled) fsync: control-plane
// bursts — a consolidation installing a rule plus its event
// registrations — reach stable storage in one sync instead of one per
// record.
const DefaultGroupCommit = 32

// Options configures a Writer.
type Options struct {
	// GroupCommit is the records-per-sync batch size (<=0 selects
	// DefaultGroupCommit; 1 syncs every record).
	GroupCommit int
	// Sink, when non-nil, receives the durable byte stream: each Sync
	// writes the newly durable suffix to it. A file sink makes the log
	// survive the process; a nil sink keeps the log in memory, which is
	// what the crash-restore oracle uses (a simulated crash keeps only
	// DurableBytes).
	Sink io.Writer
	// OnSync, when non-nil, observes every sync with the number of
	// bytes made durable and the wall time the sync took. The engine
	// wires this into the wal_fsync histogram.
	OnSync func(bytes int, d time.Duration)
}

// segmentSize is the capacity of one log segment. The in-memory log is
// a list of them, each filled to the brim before the next is started, so
// an append copies the record and nothing else — one growing slice
// recopied its whole history every time it outgrew its array — and log
// offset o is byte o%segmentSize of segment o/segmentSize.
const segmentSize = 256 << 10

// Writer is the group-commit WAL appender. Appends are serialized by a
// mutex — every journaled mutation already happens inside the flow-table
// Edit that applied it, so this is control-plane-only contention and the
// batched fast path never touches it.
type Writer struct {
	mu   sync.Mutex
	opts Options
	// segs is the log; size its length in bytes, durable the length of
	// its synced prefix. rec is the buffer a record is encoded in.
	segs    [][]byte
	rec     []byte
	size    int
	durable int
	pending int
	seq     uint64
	syncs   uint64
}

// write appends p to the log.
func (w *Writer) write(p []byte) {
	w.size += len(p)
	for len(p) > 0 {
		if n := len(w.segs); n == 0 || len(w.segs[n-1]) == segmentSize {
			w.segs = append(w.segs, make([]byte, 0, segmentSize))
		}
		tail := &w.segs[len(w.segs)-1]
		n := min(len(p), segmentSize-len(*tail))
		*tail = append(*tail, p[:n]...)
		p = p[n:]
	}
}

// read calls fn on log bytes [from, to), a segment's share at a time.
func (w *Writer) read(from, to int, fn func([]byte)) {
	for from < to {
		seg, off := w.segs[from/segmentSize], from%segmentSize
		n := min(len(seg)-off, to-from)
		fn(seg[off : off+n])
		from += n
	}
}

// copyOf returns log bytes [0, to) as one slice.
func (w *Writer) copyOf(to int) []byte {
	b := make([]byte, 0, to)
	w.read(0, to, func(p []byte) { b = append(b, p...) })
	return b
}

// NewWriter returns an empty log.
func NewWriter(opts Options) *Writer {
	if opts.GroupCommit <= 0 {
		opts.GroupCommit = DefaultGroupCommit
	}
	return &Writer{opts: opts}
}

// Append assigns the next sequence number, encodes the record and
// appends it to the log, syncing when the group-commit batch fills.
// The caller's Seq field is ignored. Nil-receiver safe so journaling
// call sites need no guards.
func (w *Writer) Append(r Record) uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	w.seq++
	r.Seq = w.seq
	w.rec = appendRecord(w.rec[:0], &r)
	w.write(w.rec)
	w.pending++
	if w.pending >= w.opts.GroupCommit {
		w.syncLocked()
	}
	seq := w.seq
	w.mu.Unlock()
	return seq
}

// SetOnSync replaces the sync observer after construction; the engine
// uses it to wire an attached Writer into its fsync histogram.
func (w *Writer) SetOnSync(fn func(bytes int, d time.Duration)) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.opts.OnSync = fn
	w.mu.Unlock()
}

// Sync forces everything appended so far onto stable storage. Called
// by checkpointing so the checkpoint's recorded log position is
// durable before the snapshot that references it.
func (w *Writer) Sync() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.syncLocked()
	w.mu.Unlock()
}

func (w *Writer) syncLocked() {
	if w.pending == 0 && w.durable == w.size {
		return
	}
	start := time.Now()
	if w.opts.Sink != nil {
		w.read(w.durable, w.size, func(p []byte) { _, _ = w.opts.Sink.Write(p) })
	}
	n := w.size - w.durable
	w.durable = w.size
	w.pending = 0
	w.syncs++
	if w.opts.OnSync != nil {
		w.opts.OnSync(n, time.Since(start))
	}
}

// DurableBytes returns a copy of the synced prefix of the log — the
// bytes a crash is guaranteed to leave behind. Records appended since
// the last group commit are deliberately excluded; the crash-restore
// oracle feeds exactly this to Restore.
func (w *Writer) DurableBytes() []byte {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	b := w.copyOf(w.durable)
	w.mu.Unlock()
	return b
}

// DurableLen returns the synced prefix length in bytes without
// copying the log — the scrape-time value behind the
// speedybox_wal_durable_bytes gauge.
func (w *Writer) DurableLen() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	n := w.durable
	w.mu.Unlock()
	return n
}

// Bytes returns a copy of the whole log including the unsynced tail.
func (w *Writer) Bytes() []byte {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	b := w.copyOf(w.size)
	w.mu.Unlock()
	return b
}

// Seq returns the last assigned record sequence number.
func (w *Writer) Seq() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	s := w.seq
	w.mu.Unlock()
	return s
}

// Syncs returns how many group commits have reached stable storage.
func (w *Writer) Syncs() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	s := w.syncs
	w.mu.Unlock()
	return s
}

// Size returns the total log length in bytes (durable + pending).
func (w *Writer) Size() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	n := w.size
	w.mu.Unlock()
	return n
}
