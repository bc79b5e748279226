package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// TestSetupBlockSizeClass pins the set-up block: the rule at offset 0, so
// a packet served from it reads the lines a GlobalRule alone would, and
// the rule's room and the recording's after it, 872 bytes. With the
// 8-byte header Go's allocator puts before an object over 512 bytes that
// holds pointers, that is 880 bytes, in the 896-byte size class. The
// room holds the batches' plan — schedule, charge and Monitor's two adds
// — which the rule points to, and the program, the one copy of the
// rule's header work (1016 bytes, the 1024-byte class, while the rule
// also kept its merged modifies and its stack work as slices). A field
// that pushes it past 888 costs every flow set-up 128 bytes more.
func TestSetupBlockSizeClass(t *testing.T) {
	var blk setupBlock
	if off := unsafe.Offsetof(blk.rule); off != 0 {
		t.Errorf("the rule is at offset %d of the block, want 0", off)
	}
	sizes := []struct {
		name      string
		got, want uintptr
	}{
		{"mat.Room", unsafe.Sizeof(mat.Room{}), 288},
		{"event.Room", unsafe.Sizeof(event.Room{}), 432},
		{"setupBlock", unsafe.Sizeof(blk), 872},
	}
	for _, s := range sizes {
		if s.got != s.want {
			t.Errorf("%s is %d bytes, want %d", s.name, s.got, s.want)
		}
	}
	if n := unsafe.Sizeof(blk) + mallocHeader; n <= 768 || n > 896 {
		t.Errorf("the block is %d bytes with its malloc header: not in the 896-byte size class", n)
	}
}

// mallocHeader is the type header Go's allocator puts before an object
// over 512 bytes that holds pointers.
const mallocHeader = 8

// genTracer is a stateful NF for TestSetupHammer. The packets of one
// connection carry its generation (their 4-byte payload): the first
// packet the NF sees writes it into the flow's first word, and every
// later one must find it there, in the same words. Its state function
// counts packets in the second word.
type genTracer struct {
	declared
	name string
	// slices maps a generation to the address of the first word the NF
	// was given on it.
	slices sync.Map
	mu     sync.Mutex
	errs   []string
}

func newGenTracer(name string, words int) *genTracer {
	g := &genTracer{name: name}
	g.flows.Words = words
	return g
}

func (g *genTracer) Name() string { return g.name }

func (g *genTracer) FlowStates() *FlowStates {
	return g.declare([]sfunc.Func{{Name: "count", Class: sfunc.ClassIgnore, Run: func(a sfunc.Args, _ *packet.Packet) (uint64, error) {
		a.State[1].Add(1)
		return 1, nil
	}}})
}

func (g *genTracer) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.errs) < 5 {
		g.errs = append(g.errs, fmt.Sprintf(g.name+": "+format, args...))
	}
}

func (g *genTracer) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse)
	st := ctx.FlowState(g.FlowStates())
	if p := pkt.Payload(); len(p) == 4 {
		gen := uint64(binary.BigEndian.Uint32(p))
		if !st[0].CompareAndSwap(0, gen) {
			if w := st[0].Load(); w != gen {
				g.fail("a packet of generation %d finds generation %d's state", gen, w)
			}
		}
		if first, loaded := g.slices.LoadOrStore(gen, &st[0]); loaded && first != &st[0] {
			g.fail("generation %d was given words at %p, then at %p", gen, first, &st[0])
		}
	}
	if err := ctx.AddStateFunc(0); err != nil {
		return 0, err
	}
	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	return VerdictForward, nil
}

// TestSetupHammer races the one lock a traversal takes of its flow's
// record — the first FlowState resolving every NF's words — against
// everything that moves them. Two workers send packets of one TCP flow
// while chain changes insert a stateful NF ahead of the others and take
// it out again, and a third goroutine ends each connection: it tears the
// flow down and reuses its 5-tuple with a SYN. The packets of a
// connection carry its generation, and connections do not overlap. Each
// NF must be given one slice of words for a connection's life, whatever
// layout the traversal ran under, and find only its own connection's
// state there; CheckRecords must be clean at the end. Run under -race.
func TestSetupHammer(t *testing.T) {
	t1, t2, t0 := newGenTracer("t1", 2), newGenTracer("t2", 3), newGenTracer("t0", 2)
	eng, err := NewEngine([]NF{t1, t2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const port = 7600
	gens := 400
	if raceEnabled {
		gens = 100
	}
	pkt := func(flags uint8, gen uint32, seq int) *packet.Packet {
		var p [4]byte
		binary.BigEndian.PutUint32(p[:], gen)
		return tcpPkt(t, port, flags, seq, string(p[:]))
	}
	var (
		conn    sync.RWMutex // held to send a packet; exclusively to end a connection
		gen     atomic.Uint32
		stop    atomic.Bool
		workers sync.WaitGroup
		// Under mu, broadcast on moved: the packets the workers have begun
		// and sent, the chain changes made and stop's store.
		mu                   sync.Mutex
		moved                = sync.NewCond(&mu)
		begun, sent, changes uint64
	)
	// await blocks until *count has grown by n, the test stops or it has
	// failed.
	await := func(count *uint64, n uint64) {
		mu.Lock()
		defer mu.Unlock()
		for want := *count + n; *count < want && !stop.Load() && !t.Failed(); {
			moved.Wait()
		}
	}
	bump := func(count *uint64) {
		mu.Lock()
		*count++
		mu.Unlock()
		moved.Broadcast()
	}
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			b := NewBatch(1)
			for seq := 2; !stop.Load(); seq++ {
				conn.RLock()
				g := gen.Load()
				if g > 0 {
					bump(&begun)
					if _, err := eng.ProcessBatch([]*packet.Packet{pkt(packet.TCPFlagACK, g, seq)}, b); err != nil {
						t.Error(err)
					}
				}
				conn.RUnlock()
				if g > 0 {
					bump(&sent)
				}
				// Take turns a packet at a time: on one CPU, a goroutine
				// woken by the bump runs now, not a time slice later.
				runtime.Gosched()
			}
		}()
	}
	// Chain changes, each made as a packet begins its traversal.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for !stop.Load() {
			await(&begun, 1)
			if err := eng.Reconfigure(ChainPlan{Op: OpInsert, Pos: 0, NF: t0}); err != nil {
				t.Error(err)
				return
			}
			bump(&changes)
			await(&begun, 1)
			if err := eng.Reconfigure(ChainPlan{Op: OpRemove, Name: t0.name}); err != nil {
				t.Error(err)
				return
			}
			bump(&changes)
		}
	}()
	b := NewBatch(1)
	var fid flow.FID
	for g := uint32(1); g <= uint32(gens); g++ {
		conn.Lock()
		if g > 1 {
			eng.TeardownFlow(fid)
		}
		for i, flags := range []uint8{packet.TCPFlagSYN, packet.TCPFlagACK} {
			res, err := eng.ProcessBatch([]*packet.Packet{pkt(flags, g, i)}, b)
			if err != nil {
				t.Fatal(err)
			}
			fid = res[0].FID
		}
		gen.Store(g)
		conn.Unlock()
		// Each connection lives through eight packets and a chain
		// change each way.
		await(&sent, 8)
		await(&changes, 2)
	}
	mu.Lock()
	stop.Store(true)
	mu.Unlock()
	moved.Broadcast()
	workers.Wait()
	for _, g := range []*genTracer{t0, t1, t2} {
		for _, e := range g.errs {
			t.Error(e)
		}
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
	if st := eng.Stats(); st.Consolidations == 0 || st.FastPath == 0 {
		t.Errorf("stats %+v: want flows consolidated and served", st)
	}
}

// parker is a stateful NF whose Process resolves its flow's word and,
// once armed, says so on parked and waits for release before it writes
// the word: a traversal held inside the NF in the middle of a vector.
type parker struct {
	declared
	armed           atomic.Bool
	parked, release chan struct{}
}

func newParker() *parker {
	p := &parker{parked: make(chan struct{}), release: make(chan struct{})}
	p.flows.Words = 1
	return p
}

func (p *parker) Name() string { return "parker" }

func (p *parker) FlowStates() *FlowStates { return p.declare(nil) }

func (p *parker) Process(ctx *Ctx, _ *packet.Packet) (Verdict, error) {
	st := ctx.FlowState(p.FlowStates())
	if p.armed.CompareAndSwap(true, false) {
		p.parked <- struct{}{}
		<-p.release
	}
	st[0].Add(1)
	return VerdictForward, ctx.AddHeaderAction(mat.Forward())
}

// TestControlStepWaitsOutTraversal parks a traversal inside an NF, its
// flow's words resolved, on the first packet of a two-packet vector, and
// starts one control-plane step while it is parked: the step must not
// return until the vector has ended, and the records must be clean after
// it. Removing the parked NF is the step whose slot drop a traversal
// still inside the NF would write past.
func TestControlStepWaitsOutTraversal(t *testing.T) {
	const port, other = 7700, 7701
	steps := []struct {
		name string
		run  func(eng *Engine, fid flow.FID, migrant wal.MigrationRecord) error
	}{
		{"Reconfigure", func(eng *Engine, _ flow.FID, _ wal.MigrationRecord) error {
			return eng.Reconfigure(ChainPlan{Op: OpRemove, Name: "parker"})
		}},
		{"Checkpoint", func(eng *Engine, _ flow.FID, _ wal.MigrationRecord) error {
			_, err := eng.Checkpoint()
			return err
		}},
		{"ExtractFlow", func(eng *Engine, fid flow.FID, _ wal.MigrationRecord) error {
			if _, ok := eng.ExtractFlow(fid); !ok {
				return fmt.Errorf("%v is not tracked", fid)
			}
			return nil
		}},
		{"AdoptFlow", func(eng *Engine, _ flow.FID, migrant wal.MigrationRecord) error {
			eng.AdoptFlow(migrant)
			return nil
		}},
		{"CheckRecords", func(eng *Engine, _ flow.FID, _ wal.MigrationRecord) error {
			return eng.CheckRecords()
		}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			p := newParker()
			fwd := &scripted{name: "fwd", script: func(ctx *Ctx) error { return ctx.AddHeaderAction(mat.Forward()) }}
			eng, err := NewEngine([]NF{p, fwd}, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			b := NewBatch(2)
			send := func(pkts ...*packet.Packet) flow.FID {
				res, err := eng.ProcessBatch(pkts, b)
				if err != nil {
					t.Fatal(err)
				}
				return res[0].FID
			}
			// The migrant is a flow set up here and extracted, for AdoptFlow
			// to put back.
			send(tcpPkt(t, other, packet.TCPFlagSYN, 0, ""))
			migrant, ok := eng.ExtractFlow(send(tcpPkt(t, other, packet.TCPFlagACK, 1, "m")))
			if !ok {
				t.Fatal("the migrant flow is not tracked")
			}
			fid := send(tcpPkt(t, port, packet.TCPFlagSYN, 0, ""))

			p.armed.Store(true)
			vector := make(chan error, 1)
			go func() {
				_, err := eng.ProcessBatch([]*packet.Packet{
					tcpPkt(t, port, packet.TCPFlagACK, 1, "a"),
					tcpPkt(t, port, packet.TCPFlagACK, 2, "b"),
				}, NewBatch(2))
				vector <- err
			}()
			<-p.parked
			done := make(chan error, 1)
			go func() { done <- step.run(eng, fid, migrant) }()
			returned := false
			select {
			case err := <-done:
				returned = true
				t.Errorf("%s returned (err %v) while a vector was parked inside an NF", step.name, err)
			case <-time.After(50 * time.Millisecond):
			}
			wait := func(what string, ch <-chan error) {
				select {
				case err := <-ch:
					if err != nil {
						t.Errorf("%s: %v", what, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s did not return once the vector was released", what)
				}
			}
			close(p.release)
			wait("the parked vector", vector)
			if !returned {
				wait(step.name, done)
			}
			if err := eng.CheckRecords(); err != nil {
				t.Error(err)
			}
		})
	}
}

// scripted is a test NF that records what its script records.
type scripted struct {
	declared
	name   string
	script func(*Ctx) error
}

func (s *scripted) Name() string { return s.name }

func (s *scripted) FlowStates() *FlowStates {
	return s.declare([]sfunc.Func{{Name: "nop", Class: sfunc.ClassIgnore, Run: func(sfunc.Args, *packet.Packet) (uint64, error) { return 0, nil }}})
}

func (s *scripted) Process(ctx *Ctx, _ *packet.Packet) (Verdict, error) {
	return VerdictForward, s.script(ctx)
}

// TestRecordedSpansAreExactCopies pins what a traversal's recording
// promises the rule built from it: each NF's span is exactly sized and
// capacity-limited, so an append to it (an event Update on a copy of
// it) reallocates instead of growing into the next NF's span; a modify's
// value is the recording's, so the NF may reuse its buffer; a lone
// forward is the one shared span; an NF that recorded nothing stays the
// zero span, and one that recorded only state functions gets non-nil
// actions.
func TestRecordedSpansAreExactCopies(t *testing.T) {
	buf := []byte{1}
	chain := []NF{
		&scripted{name: "dscp", script: func(c *Ctx) error {
			err := c.AddModify(packet.FieldDSCP, buf)
			buf[0] = 2
			return err
		}},
		&scripted{name: "ttl", script: func(c *Ctx) error { return c.AddModify(packet.FieldTTL, []byte{9}) }},
		&scripted{name: "fw", script: func(c *Ctx) error { return c.AddHeaderAction(mat.Forward()) }},
		&scripted{name: "silent", script: func(*Ctx) error { return nil }},
		&scripted{name: "counter", script: func(c *Ctx) error { return c.AddStateFunc(0) }},
	}
	eng, err := NewEngine(chain, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ProcessPacket(udpPkt(t, 8801, "record"))
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := eng.Global().Lookup(res.FID)
	if !ok {
		t.Fatal("no rule")
	}
	spans := rule.Spans
	if r := spans[0]; len(r.Actions) != 1 || cap(r.Actions) != 1 || r.Actions[0].Kind != mat.ActionModify || r.Actions[0].Value[0] != 1 {
		t.Errorf("first span %v (cap %d), want an exact copy of [modify(DSCP) to 1]", r.Actions, cap(r.Actions))
	}
	grown := append(spans[0].Actions, mat.Drop())
	grown[0].Value = nil
	if r := spans[1]; len(r.Actions) != 1 || r.Actions[0].Field != packet.FieldTTL || spans[0].Actions[0].Value == nil {
		t.Errorf("an append to one span reached it or its neighbour: %v", spans)
	}
	if len(spans[2].Actions) != 1 || &spans[2].Actions[0] != &event.LoneForward()[0] {
		t.Errorf("the lone forward %v is not the shared span", spans[2].Actions)
	}
	if spans[3].Actions != nil || spans[4].Actions == nil || len(spans[4].Funcs) != 1 {
		t.Errorf("spans %v: want the silent NF's zero and the counter's non-nil", spans)
	}
}
