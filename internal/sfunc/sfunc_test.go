package sfunc

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func testPacket(t *testing.T) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
		Payload: []byte("payload-bytes"),
	})
}

// seq is the calls of the first n declared functions, in order.
func seq(n int) []uint8 {
	calls := make([]uint8, n)
	for i := range calls {
		calls[i] = uint8(i)
	}
	return calls
}

func costed(name string, class PayloadClass, cycles uint64) Func {
	return Func{Name: name, Class: class, Run: func(Args, *packet.Packet) (uint64, error) {
		return cycles, nil
	}}
}

func TestPayloadClass(t *testing.T) {
	if PayloadClass(0).Valid() {
		t.Error("zero class must be invalid")
	}
	for c, name := range map[PayloadClass]string{
		ClassIgnore: "ignore", ClassRead: "read", ClassWrite: "write",
	} {
		if !c.Valid() || c.String() != name {
			t.Errorf("class %d: valid=%v name=%q", c, c.Valid(), c.String())
		}
	}
}

func TestBatchClassPriority(t *testing.T) {
	tests := []struct {
		name    string
		classes []PayloadClass
		want    PayloadClass
	}{
		{"empty is ignore", nil, ClassIgnore},
		{"single read", []PayloadClass{ClassRead}, ClassRead},
		{"read read write is write (paper example)", []PayloadClass{ClassRead, ClassRead, ClassWrite}, ClassWrite},
		{"ignore read", []PayloadClass{ClassIgnore, ClassRead}, ClassRead},
		{"all ignore", []PayloadClass{ClassIgnore, ClassIgnore}, ClassIgnore},
		{"write first", []PayloadClass{ClassWrite, ClassIgnore}, ClassWrite},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			site := &Site{NF: "x"}
			for i, c := range tt.classes {
				site.Funcs = append(site.Funcs, costed("f", c, uint64(i)))
			}
			b := NewBatch(site, seq(len(tt.classes)), 0, nil)
			if got := b.Class(); got != tt.want {
				t.Errorf("Class() = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestParallelizableTableI checks all nine combinations against the
// paper's rule: a writer can only pair with an ignorer.
func TestParallelizableTableI(t *testing.T) {
	tests := []struct {
		b1, b2 PayloadClass
		want   bool
	}{
		{ClassWrite, ClassWrite, false},
		{ClassWrite, ClassRead, false},
		{ClassWrite, ClassIgnore, true},
		{ClassRead, ClassWrite, false},
		{ClassRead, ClassRead, true},
		{ClassRead, ClassIgnore, true},
		{ClassIgnore, ClassWrite, true},
		{ClassIgnore, ClassRead, true},
		{ClassIgnore, ClassIgnore, true},
	}
	for _, tt := range tests {
		if got := Parallelizable(tt.b1, tt.b2); got != tt.want {
			t.Errorf("Parallelizable(%v, %v) = %v, want %v", tt.b1, tt.b2, got, tt.want)
		}
	}
}

func TestParallelizableSymmetricForNonWriters(t *testing.T) {
	f := func(a, b uint8) bool {
		c1 := PayloadClass(a%3) + 1
		c2 := PayloadClass(b%3) + 1
		return Parallelizable(c1, c2) == Parallelizable(c2, c1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanGrouping(t *testing.T) {
	mk := func(classes ...PayloadClass) []Batch {
		bs := make([]Batch, len(classes))
		for i, c := range classes {
			bs[i] = NewBatch(&Site{NF: "nf", Funcs: []Func{costed("f", c, 1)}}, seq(1), 0, nil)
		}
		return bs
	}
	tests := []struct {
		name    string
		batches []Batch
		want    string
	}{
		{"empty", nil, ""},
		{"single", mk(ClassRead), "[0]"},
		{"three reads fuse (Fig 5 synthetic NFs)", mk(ClassRead, ClassRead, ClassRead), "[0 1 2]"},
		{"write splits readers", mk(ClassRead, ClassWrite, ClassRead), "[0] [1] [2]"},
		{"write pairs with ignore", mk(ClassWrite, ClassIgnore), "[0 1]"},
		{"ignore between writes fuses once", mk(ClassWrite, ClassIgnore, ClassWrite), "[0 1] [2]"},
		{"snort then monitor (read, ignore)", mk(ClassRead, ClassIgnore), "[0 1]"},
		{"empty batches skipped", []Batch{{Site: &Site{NF: "a"}}, NewBatch(&Site{NF: "b", Funcs: []Func{costed("f", ClassRead, 1)}}, seq(1), 0, nil), {Site: &Site{NF: "c"}}}, "[1]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Plan(tt.batches).String(); got != tt.want {
				t.Errorf("Plan = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestPlanPreservesOrder(t *testing.T) {
	// Indices within the flattened schedule must be strictly
	// increasing: the plan never reorders batches.
	f := func(raw []uint8) bool {
		batches := make([]Batch, len(raw))
		for i, r := range raw {
			batches[i] = NewBatch(&Site{NF: "nf", Funcs: []Func{costed("f", PayloadClass(r%3)+1, 1)}}, seq(1), 0, nil)
		}
		var last = -1
		for _, stage := range Plan(batches).Stages() {
			for _, idx := range stage {
				if idx <= last {
					return false
				}
				last = idx
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlanStagesPairwiseCompatible(t *testing.T) {
	f := func(raw []uint8) bool {
		batches := make([]Batch, len(raw))
		for i, r := range raw {
			batches[i] = NewBatch(&Site{NF: "nf", Funcs: []Func{costed("f", PayloadClass(r%3)+1, 1)}}, seq(1), 0, nil)
		}
		for _, stage := range Plan(batches).Stages() {
			for i := 0; i < len(stage); i++ {
				for j := i + 1; j < len(stage); j++ {
					if !Parallelizable(batches[stage[i]].Class(), batches[stage[j]].Class()) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExecuteCriticalPath(t *testing.T) {
	// Two parallel read batches: critical path is max + forkJoin,
	// total is sum + forkJoin.
	batches := []Batch{
		NewBatch(&Site{NF: "a", Funcs: []Func{costed("fa", ClassRead, 300)}}, seq(1), 0, nil),
		NewBatch(&Site{NF: "b", Funcs: []Func{costed("fb", ClassRead, 500)}}, seq(1), 0, nil),
	}
	plan := Plan(batches)
	if plan.ParallelStages() != 1 {
		t.Fatalf("plan = %v, want one parallel stage", plan)
	}
	res, err := plan.Execute(batches, testPacket(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalCycles != 600 {
		t.Errorf("CriticalCycles = %d, want 600 (max 500 + forkJoin 100)", res.CriticalCycles)
	}
	if res.TotalCycles != 900 {
		t.Errorf("TotalCycles = %d, want 900", res.TotalCycles)
	}
}

func TestExecuteSequentialStage(t *testing.T) {
	// A single-batch stage pays no fork/join.
	batches := []Batch{NewBatch(&Site{NF: "a", Funcs: []Func{costed("fa", ClassWrite, 300)}}, seq(1), 0, nil),
		NewBatch(&Site{NF: "b", Funcs: []Func{costed("fb", ClassWrite, 500)}}, seq(1), 0, nil)}
	res, err := Plan(batches).Execute(batches, testPacket(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalCycles != 800 || res.TotalCycles != 800 {
		t.Errorf("sequential writes: critical=%d total=%d, want 800/800", res.CriticalCycles, res.TotalCycles)
	}
}

// orderedBatches returns n single-function batches of the given class
// that append their index to *order when run; those listed in fail
// return an error naming their index.
func orderedBatches(n int, class PayloadClass, order *[]int, fail map[int]error) []Batch {
	batches := make([]Batch, n)
	for i := range batches {
		i := i
		batches[i] = NewBatch(&Site{NF: fmt.Sprintf("nf%d", i), Funcs: []Func{{Name: "f", Class: class,
			Run: func(Args, *packet.Packet) (uint64, error) {
				*order = append(*order, i)
				return 10, fail[i]
			}}}}, seq(1), 0, nil)
	}
	return batches
}

func TestExecuteRunsStageInChainOrderInline(t *testing.T) {
	// The appends below are unsynchronized: under -race this also pins
	// that every batch runs on the calling goroutine.
	var order []int
	batches := orderedBatches(4, ClassRead, &order, nil)
	plan := Plan(batches)
	if plan.Len() != 1 {
		t.Fatalf("plan = %v, want one stage of four", plan)
	}
	res, err := plan.Execute(batches, testPacket(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Errorf("run order = %v, want chain order", order)
	}
	want := ExecResult{CriticalCycles: 110, TotalCycles: 140, MaxStageCycles: 110, Stages: 1}
	if res != want {
		t.Errorf("result = %+v, want %+v", res, want)
	}
}

func TestExecuteParallelStageFirstErrorInChainOrder(t *testing.T) {
	errB, errD := errors.New("b failed"), errors.New("d failed")
	var order []int
	// Stage 0: four readers, the second and fourth fail. Stage 1: a
	// writer that must not run.
	batches := orderedBatches(5, ClassRead, &order, map[int]error{1: errB, 3: errD})
	batches[4].Funcs[0].Class = ClassWrite
	plan := Plan(batches)
	if plan.Len() != 2 {
		t.Fatalf("plan = %v, want two stages", plan)
	}
	for i := 0; i < 20; i++ {
		order = order[:0]
		res, err := plan.Execute(batches, testPacket(t), 0)
		if !errors.Is(err, errB) || errors.Is(err, errD) {
			t.Fatalf("err = %v, want the first failure in chain order (b)", err)
		}
		if !slices.Equal(order, []int{0, 1, 2, 3}) {
			t.Fatalf("ran %v, want every batch of the failing stage and none after", order)
		}
		if res.Stages != 1 || res.TotalCycles != 40 {
			t.Fatalf("result = %+v, want the failing stage charged in full", res)
		}
	}
}

func TestExecuteDoesNotAllocate(t *testing.T) {
	batches := []Batch{
		NewBatch(&Site{NF: "a", Funcs: []Func{costed("fa", ClassRead, 300)}}, seq(1), 0, nil),
		NewBatch(&Site{NF: "b", Funcs: []Func{costed("fb", ClassRead, 500)}}, seq(1), 0, nil),
		NewBatch(&Site{NF: "c", Funcs: []Func{costed("fc", ClassWrite, 7)}}, seq(1), 0, nil),
	}
	plan := Plan(batches)
	pkt := testPacket(t)
	if plan.ParallelStages() != 1 || plan.Len() != 2 {
		t.Fatalf("plan = %v, want one parallel and one single stage", plan)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := plan.Execute(batches, pkt, 100); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Execute allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ExecuteSequential(batches, pkt); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ExecuteSequential allocates %v per run, want 0", n)
	}
}

func TestExecuteErrorFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	batches := []Batch{
		NewBatch(&Site{NF: "a", Funcs: []Func{{Name: "fail", Class: ClassWrite, Run: func(Args, *packet.Packet) (uint64, error) {
			return 10, boom
		}}}}, seq(1), 0, nil),
		NewBatch(&Site{NF: "b", Funcs: []Func{{Name: "later", Class: ClassWrite, Run: func(Args, *packet.Packet) (uint64, error) {
			ran.Add(1)
			return 10, nil
		}}}}, seq(1), 0, nil),
	}
	_, err := Plan(batches).Execute(batches, testPacket(t), 0)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !errors.Is(err, ErrBatchFailed) {
		t.Errorf("err = %v, want ErrBatchFailed in chain", err)
	}
	if ran.Load() != 0 {
		t.Error("later stage ran after earlier stage failed")
	}
}

func TestBatchRunSequentialOrder(t *testing.T) {
	var order []string
	mk := func(name string) Func {
		return Func{Name: name, Class: ClassIgnore, Run: func(Args, *packet.Packet) (uint64, error) {
			order = append(order, name)
			return 5, nil
		}}
	}
	b := NewBatch(&Site{NF: "nf", Funcs: []Func{mk("first"), mk("second"), mk("third")}}, seq(3), 0, nil)
	cycles, err := b.RunSequential(testPacket(t))
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 15 {
		t.Errorf("cycles = %d, want 15", cycles)
	}
	if len(order) != 3 || order[0] != "first" || order[2] != "third" {
		t.Errorf("order = %v", order)
	}
}

func TestExecuteSequentialHelper(t *testing.T) {
	batches := []Batch{
		NewBatch(&Site{NF: "a", Funcs: []Func{costed("fa", ClassRead, 300)}}, seq(1), 0, nil),
		{Site: &Site{NF: "b"}},
		NewBatch(&Site{NF: "c", Funcs: []Func{costed("fc", ClassRead, 500)}}, seq(1), 0, nil),
	}
	res, err := ExecuteSequential(batches, testPacket(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalCycles != 800 || res.TotalCycles != 800 {
		t.Errorf("critical=%d total=%d, want 800/800", res.CriticalCycles, res.TotalCycles)
	}
	if res.Stages != 2 {
		t.Errorf("stages = %d, want 2 (empty batch skipped)", res.Stages)
	}
}

// TestFuncValidate: a function is a handler or declared as data — adds
// of a valid operand and a price the cost model names — never both and
// never neither.
func TestFuncValidate(t *testing.T) {
	run := func(Args, *packet.Packet) (uint64, error) { return 0, nil }
	count := []Add{{Word: 0, Operand: One}, {Word: 1, Operand: Length}}
	for _, tt := range []struct {
		f     Func
		valid bool
	}{
		{Func{Name: "handler", Class: ClassRead, Run: run}, true},
		{Func{Name: "count", Class: ClassIgnore, Adds: count, Price: cost.CounterUpdate}, true},
		{Func{Name: "touch", Class: ClassIgnore, Price: cost.ConnTrackLookup}, true},
		{Func{Name: "neither", Class: ClassRead}, false},
		{Func{Name: "both", Class: ClassIgnore, Run: run, Price: cost.CounterUpdate}, false},
		{Func{Name: "both-adds", Class: ClassIgnore, Run: run, Adds: count}, false},
		{Func{Name: "unpriced", Class: ClassIgnore, Adds: count}, false},
		{Func{Name: "badprice", Class: ClassIgnore, Price: 99}, false},
		{Func{Name: "syncount", Class: ClassIgnore, Adds: []Add{{Word: 0, Operand: SYN}}, Price: cost.CounterUpdate}, true},
		{Func{Name: "badoperand", Class: ClassIgnore, Adds: []Add{{Word: 0}}, Price: cost.CounterUpdate}, false},
		{Func{Name: "unknownoperand", Class: ClassIgnore, Adds: []Add{{Word: 0, Operand: SYN + 1}}, Price: cost.CounterUpdate}, false},
		{Func{Name: "badclass", Class: 0, Run: run}, false},
		{Func{Name: "badclass-data", Class: 0, Price: cost.CounterUpdate}, false},
	} {
		if err := tt.f.Validate(); (err == nil) != tt.valid {
			t.Errorf("%s: Validate() = %v, want valid %v", tt.f.Name, err, tt.valid)
		}
	}
}

// TestDataFunctionRuns: a function declared as data runs, under
// RunSequential, as its adds on the flow's words and its price.
func TestDataFunctionRuns(t *testing.T) {
	m := cost.DefaultModel()
	site := &Site{NF: "monitor", Model: m, Funcs: []Func{{Name: "count", Class: ClassIgnore,
		Adds: []Add{{Word: 0, Operand: One}, {Word: 1, Operand: Length}}, Price: cost.CounterUpdate}}}
	st := make(State, 2)
	b := NewBatch(site, []uint8{0, 0}, 7, st)
	pkt := testPacket(t)
	c, err := b.RunSequential(pkt)
	if err != nil || c != 2*m.CounterUpdate {
		t.Fatalf("RunSequential = %d, %v; want %d", c, err, 2*m.CounterUpdate)
	}
	if st[0].Load() != 2 || st[1].Load() != 2*uint64(pkt.Len()) {
		t.Errorf("words %d, %d after two counts of a %d-byte packet", st[0].Load(), st[1].Load(), pkt.Len())
	}
	if _, err := ExecIn(nil, nil, nil, []Batch{NewBatch(site, []uint8{0}, 7, st[:1])}); err == nil {
		t.Error("an add to a word the flow does not have was bound")
	}
}

// TestCellAddBindsResolvedWord: a Cell add grows the word its resolver
// returns for the flow's state, resolved once, where ExecIn builds the
// rule, and never per packet; a SYN add counts only packets carrying the
// SYN flag, a SYN|FIN among them.
func TestCellAddBindsResolvedWord(t *testing.T) {
	var shared atomic.Uint64
	resolved := 0
	cell := func(st State) *atomic.Uint64 {
		resolved++
		if st[0].Load() != 42 {
			t.Errorf("resolver given word %d, want the flow's 42", st[0].Load())
		}
		return &shared
	}
	m := cost.DefaultModel()
	site := &Site{NF: "limiter", Model: m, Funcs: []Func{{Name: "quota", Class: ClassIgnore,
		Adds: []Add{{Cell: cell, Operand: One}, {Word: 1, Operand: SYN}}, Price: cost.CounterUpdate}}}
	st := make(State, 2)
	st[0].Store(42)
	batches := []Batch{NewBatch(site, []uint8{0}, 7, st)}
	x, err := ExecIn(nil, nil, nil, batches)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != 1 {
		t.Fatalf("ExecIn resolved the cell %d times, want once", resolved)
	}
	tcp := func(flags uint8) *packet.Packet {
		return packet.MustBuild(packet.Spec{SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
			SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP, TCPFlags: flags})
	}
	for _, flags := range []uint8{packet.TCPFlagACK, packet.TCPFlagSYN, packet.TCPFlagSYN | packet.TCPFlagFIN} {
		x.Add(tcp(flags))
	}
	if resolved != 1 || shared.Load() != 3 || st[0].Load() != 42 || st[1].Load() != 2 {
		t.Errorf("after three packets: %d resolutions, cell %d, words %d, %d; want 1, 3, 42, 2 (SYN and SYN|FIN counted)",
			resolved, shared.Load(), st[0].Load(), st[1].Load())
	}
	// Run as a batch, the add resolves its cell on each run.
	if _, err := batches[0].RunSequential(tcp(packet.TCPFlagACK)); err != nil {
		t.Fatal(err)
	}
	if resolved != 2 || shared.Load() != 4 || st[1].Load() != 2 {
		t.Errorf("RunSequential: %d resolutions, cell %d, SYNs %d; want 2, 4, 2", resolved, shared.Load(), st[1].Load())
	}
}

// Property: parallel execution of read-only batches leaves the payload
// byte-identical to sequential execution (invariant 8 in DESIGN.md).
func TestQuickParallelReadersPreservePayload(t *testing.T) {
	f := func(payload []byte, n uint8) bool {
		if len(payload) > 256 {
			payload = payload[:256]
		}
		nBatches := int(n%4) + 2
		batches := make([]Batch, nBatches)
		for i := range batches {
			batches[i] = NewBatch(&Site{NF: "r", Funcs: []Func{{Name: "scan", Class: ClassRead,
				Run: func(_ Args, p *packet.Packet) (uint64, error) {
					var sum byte
					for _, b := range p.Payload() {
						sum += b
					}
					_ = sum
					return uint64(len(p.Payload())), nil
				}}}}, seq(1), 0, nil)
		}
		spec := packet.Spec{SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2),
			SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP, Payload: payload}
		p1, err := packet.Build(spec)
		if err != nil {
			return false
		}
		p2 := p1.Clone()
		if _, err := Plan(batches).Execute(batches, p1, 0); err != nil {
			return false
		}
		if _, err := ExecuteSequential(batches, p2); err != nil {
			return false
		}
		return string(p1.Data()) == string(p2.Data())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
