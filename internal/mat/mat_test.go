package mat

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

func testPkt(t *testing.T) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Proto: packet.ProtoTCP,
		Payload: []byte("test payload"),
	})
}

func noopSF(name string) sfunc.Func {
	return sfunc.Func{Name: name, Class: sfunc.ClassIgnore,
		Run: func(sfunc.Args, *packet.Packet) (uint64, error) { return 10, nil }}
}

// site is the named NF's Site, declaring funcs.
func site(nf string, funcs ...sfunc.Func) *sfunc.Site { return &sfunc.Site{NF: nf, Funcs: funcs} }

func TestActionKindEnum(t *testing.T) {
	if ActionKind(0).Valid() {
		t.Error("zero ActionKind must be invalid")
	}
	for k, name := range map[ActionKind]string{
		ActionForward: "forward", ActionDrop: "drop", ActionModify: "modify",
		ActionEncap: "encap", ActionDecap: "decap",
	} {
		if !k.Valid() || k.String() != name {
			t.Errorf("kind %d: valid=%v name=%q", k, k.Valid(), k.String())
		}
	}
}

func TestActionConstructorsAndValidate(t *testing.T) {
	tests := []struct {
		name    string
		action  HeaderAction
		wantErr bool
	}{
		{"forward", Forward(), false},
		{"drop", Drop(), false},
		{"modify dip", Modify(packet.FieldDstIP, []byte{1, 2, 3, 4}), false},
		{"modify bad length", HeaderAction{Kind: ActionModify, Field: packet.FieldDstIP, Value: []byte{1}}, true},
		{"modify bad field", HeaderAction{Kind: ActionModify, Field: 0, Value: nil}, true},
		{"encap ah", Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 1}), false},
		{"encap bad type", HeaderAction{Kind: ActionEncap}, true},
		{"decap vlan", Decap(packet.HeaderVLAN), false},
		{"decap bad type", HeaderAction{Kind: ActionDecap}, true},
		{"zero kind", HeaderAction{}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.action.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestModifyCopiesValue(t *testing.T) {
	buf := []byte{9, 9, 9, 9}
	a := Modify(packet.FieldSrcIP, buf)
	buf[0] = 0
	if a.Value[0] != 9 {
		t.Error("Modify aliased the caller's buffer")
	}
}

func TestActionString(t *testing.T) {
	if s := Modify(packet.FieldDstIP, []byte{1, 2, 3, 4}).String(); s != "modify(DIP)" {
		t.Errorf("String = %q, want the paper's modify(DIP) notation", s)
	}
	if s := Encap(packet.ExtraHeader{Type: packet.HeaderAH}).String(); s != "encap(AH)" {
		t.Errorf("String = %q", s)
	}
	if s := Decap(packet.HeaderVLAN).String(); s != "decap(VLAN)" {
		t.Errorf("String = %q", s)
	}
}

func contribs(nf string, rule *LocalRule, rest ...Contribution) []Contribution {
	return append([]Contribution{{NF: nf, Rule: rule}}, rest...)
}

func TestConsolidateDropDominance(t *testing.T) {
	// NAT modifies, Firewall drops: verdict must be drop with no
	// header work (Table III early drop).
	cs := []Contribution{
		{NF: "nat", Rule: &LocalRule{Actions: []HeaderAction{Modify(packet.FieldDstIP, []byte{1, 2, 3, 4})}}},
		{NF: "monitor", Rule: &LocalRule{Funcs: []uint8{0}}, Site: site("monitor", noopSF("count"))},
		{NF: "fw", Rule: &LocalRule{Actions: []HeaderAction{Drop()}}},
	}
	r, err := Consolidate(7, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Drop {
		t.Fatal("verdict not drop")
	}
	if got := r.String(); got != "fid:00007 -> drop + 1 SF batch(es) in 1 stage(s) [v0]" {
		t.Errorf("dropped rule is %q: it retains header work", got)
	}
	// Upstream monitor's batch must be retained for state
	// equivalence.
	if len(r.Batches) != 1 || r.Batches[0].NF != "monitor" {
		t.Errorf("batches = %+v, want monitor's batch retained", r.Batches)
	}
}

func TestConsolidateDropStopsDownstreamBatches(t *testing.T) {
	cs := []Contribution{
		{NF: "fw", Rule: &LocalRule{
			Actions: []HeaderAction{Drop()},
			Funcs:   []uint8{0},
		}, Site: site("fw", noopSF("fw-count"))},
		{NF: "snort", Rule: &LocalRule{Funcs: []uint8{0}}, Site: site("snort", noopSF("inspect"))},
	}
	r, err := Consolidate(8, cs)
	if err != nil {
		t.Fatal(err)
	}
	// The dropping NF's own state function runs (it processed the
	// packet before dropping); downstream NFs' functions must not.
	if len(r.Batches) != 1 || r.Batches[0].NF != "fw" {
		t.Errorf("batches = %+v, want only fw", r.Batches)
	}
}

func TestConsolidateModifySameFieldLatterWins(t *testing.T) {
	// Paper §V-B: "If two modify actions change the same field but
	// with different values, we select the value of the latter".
	cs := []Contribution{
		{NF: "nat", Rule: &LocalRule{Actions: []HeaderAction{Modify(packet.FieldDstIP, []byte{1, 1, 1, 1})}}},
		{NF: "lb", Rule: &LocalRule{Actions: []HeaderAction{Modify(packet.FieldDstIP, []byte{2, 2, 2, 2})}}},
	}
	r, err := Consolidate(9, cs)
	if err != nil {
		t.Fatal(err)
	}
	acts := program(t, r)
	if len(acts) != 1 {
		t.Fatalf("program = %v, want single merged modify", acts)
	}
	if !bytes.Equal(acts[0].Value, []byte{2, 2, 2, 2}) {
		t.Errorf("merged value = %v, want the latter NF's", acts[0].Value)
	}
}

func TestConsolidateModifyDifferentFieldsMerge(t *testing.T) {
	// The running example from Figure 1: NF1 modify(DPort), NF2
	// modify(DIP) consolidate to modify(DIP, DPort).
	cs := []Contribution{
		{NF: "nf1", Rule: &LocalRule{Actions: []HeaderAction{Modify(packet.FieldDstPort, packet.PutUint16(8080))}}},
		{NF: "nf2", Rule: &LocalRule{Actions: []HeaderAction{Modify(packet.FieldDstIP, []byte{5, 5, 5, 5})}}},
	}
	r, err := Consolidate(10, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "fid:0000a -> modify(DPort,DIP) [v0]" {
		t.Fatalf("rule = %q, want modify(DPort,DIP)", got)
	}
	p := testPkt(t)
	alive, err := r.ExecHeader(p)
	if err != nil || !alive {
		t.Fatalf("ExecHeader: alive=%v err=%v", alive, err)
	}
	if p.DstPort() != 8080 || p.DstIP() != [4]byte{5, 5, 5, 5} {
		t.Errorf("packet after apply: dport=%d dip=%v", p.DstPort(), p.DstIP())
	}
	if !p.VerifyChecksums() {
		t.Error("checksums stale after consolidated apply")
	}
}

func TestConsolidateEncapDecapCancel(t *testing.T) {
	// VPN encap followed by VPN decap of the same header type cancels
	// entirely (§V-B: "If two adjacent encap and decap actions
	// operate on the same header, we eliminate them simultaneously").
	cs := []Contribution{
		{NF: "vpn-in", Rule: &LocalRule{Actions: []HeaderAction{Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 9})}}},
		{NF: "vpn-out", Rule: &LocalRule{Actions: []HeaderAction{Decap(packet.HeaderAH)}}},
	}
	r, err := Consolidate(11, cs)
	if err != nil {
		t.Fatal(err)
	}
	if acts := program(t, r); len(acts) != 0 {
		t.Errorf("program = %v, want empty after cancellation", acts)
	}
	p := testPkt(t)
	before := append([]byte(nil), p.Data()...)
	if _, err := r.ExecHeader(p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data(), before) {
		t.Error("cancelled encap/decap still mutated the packet")
	}
}

func TestConsolidateResidualEncap(t *testing.T) {
	cs := []Contribution{
		{NF: "vpn", Rule: &LocalRule{Actions: []HeaderAction{
			Encap(packet.ExtraHeader{Type: packet.HeaderVLAN, Tag: 7}),
			Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 3}),
		}}},
	}
	r, err := Consolidate(12, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(program(t, r)); got != "[encap(VLAN) encap(AH)]" {
		t.Fatalf("program = %s", got)
	}
	p := testPkt(t)
	if _, err := r.ExecHeader(p); err != nil {
		t.Fatal(err)
	}
	if tag, ok := p.OutermostVLAN(); !ok || tag != 7 {
		t.Errorf("vlan = (%d, %v)", tag, ok)
	}
	if spi, _, ok := p.OutermostAH(); !ok || spi != 3 {
		t.Errorf("ah spi = (%d, %v)", spi, ok)
	}
}

func TestConsolidateOutstandingDecap(t *testing.T) {
	// A decap with no pending encap pops a header that arrived on the
	// packet.
	cs := []Contribution{
		{NF: "vpn-term", Rule: &LocalRule{Actions: []HeaderAction{Decap(packet.HeaderAH)}}},
	}
	r, err := Consolidate(13, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(program(t, r)); got != "[decap(AH)]" {
		t.Fatalf("program = %s", got)
	}
	p := testPkt(t)
	if err := p.EncapAH(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecHeader(p); err != nil {
		t.Fatal(err)
	}
	h, _ := p.Headers()
	if h.AHCount != 0 {
		t.Error("outstanding decap not applied")
	}
}

func TestConsolidateMismatchedDecapFails(t *testing.T) {
	cs := []Contribution{
		{NF: "a", Rule: &LocalRule{Actions: []HeaderAction{
			Encap(packet.ExtraHeader{Type: packet.HeaderAH}),
			Decap(packet.HeaderVLAN),
		}}},
	}
	_, err := Consolidate(14, cs)
	if !errors.Is(err, ErrNotConsolidatable) {
		t.Errorf("err = %v, want ErrNotConsolidatable", err)
	}
}

// program disassembles the rule's program, failing on one ExecHeader
// would refuse.
func program(t *testing.T, r *GlobalRule) []HeaderAction {
	t.Helper()
	acts, ok := r.HeaderActions()
	if !ok {
		t.Fatalf("rule %v: program %x does not disassemble", r.FID, r.Prog)
	}
	return acts
}

func TestConsolidateNilAndEmptyContributions(t *testing.T) {
	r, err := Consolidate(15, []Contribution{
		{NF: "a", Rule: nil},
		{NF: "b", Rule: &LocalRule{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Drop || len(program(t, r)) != 0 || len(r.Batches) != 0 {
		t.Errorf("rule = %+v, want pure forward", r)
	}
	// Forward-only rule must not touch the packet.
	p := testPkt(t)
	before := append([]byte(nil), p.Data()...)
	alive, err := r.ExecHeader(p)
	if err != nil || !alive {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data(), before) {
		t.Error("forward rule mutated packet")
	}
}

func TestConsolidateInvalidActionRejected(t *testing.T) {
	cs := []Contribution{{NF: "a", Rule: &LocalRule{Actions: []HeaderAction{{Kind: ActionModify, Field: 99}}}}}
	if _, err := Consolidate(16, cs); err == nil {
		t.Error("invalid recorded action accepted")
	}
}

func TestGlobalMAT(t *testing.T) {
	g := NewGlobal(flow.NewTable())
	r1 := &GlobalRule{FID: 1}
	g.Install(r1)
	if got, ok := g.Lookup(1); !ok || got != r1 {
		t.Error("Lookup after Install failed")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
	// Reinstall bumps version (event-driven reconsolidation).
	r2 := &GlobalRule{FID: 1}
	g.Install(r2)
	if got, ok := g.Lookup(1); !ok || got.Version != 1 {
		t.Errorf("installed Version = %d, want 1 after reinstall", got.Version)
	}
	// The version is computed on a private copy: the caller's rule
	// pointer is never written through (it may be shared with readers).
	if r2.Version != 0 {
		t.Errorf("Install mutated the caller's rule: Version = %d", r2.Version)
	}
	if !g.Remove(1) {
		t.Error("Remove failed")
	}
	if g.Remove(1) {
		t.Error("double Remove succeeded")
	}
	if _, ok := g.Lookup(1); ok {
		t.Error("Lookup found removed rule")
	}
}

// TestGlobalRuleHeaderWork: the cost model's counts are the program's
// ops — merged modifies, residual decaps and encaps — and a forward or
// a drop has none.
func TestGlobalRuleHeaderWork(t *testing.T) {
	r, err := Consolidate(1, []Contribution{
		{NF: "nat", Rule: &LocalRule{Actions: []HeaderAction{
			Modify(packet.FieldDstIP, []byte{1, 2, 3, 4}),
			Decap(packet.HeaderVLAN),
			Modify(packet.FieldDstIP, []byte{4, 3, 2, 1}),
		}}},
		{NF: "vpn", Rule: &LocalRule{Actions: []HeaderAction{
			Encap(packet.ExtraHeader{Type: packet.HeaderAH}),
			Encap(packet.ExtraHeader{Type: packet.HeaderVLAN}),
			Decap(packet.HeaderVLAN),
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m, d, e := r.HeaderWork(); m != 1 || d != 1 || e != 1 {
		t.Errorf("HeaderWork = (%d, %d, %d), want one of each", m, d, e)
	}
	for _, rule := range []*GlobalRule{{}, {Drop: true}} {
		rule.Compile()
		if m, d, e := rule.HeaderWork(); m+d+e != 0 {
			t.Errorf("%v claims header work (%d, %d, %d)", rule, m, d, e)
		}
	}
}

func TestApplyNaiveMatchesChainSemantics(t *testing.T) {
	cs := []Contribution{
		{NF: "nat", Rule: &LocalRule{Actions: []HeaderAction{Modify(packet.FieldDstIP, []byte{9, 9, 9, 9})}}},
		{NF: "fw", Rule: &LocalRule{Actions: []HeaderAction{Drop()}}},
	}
	p := testPkt(t)
	dropped, err := ApplyNaive(p, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !dropped || !p.Dropped() {
		t.Error("naive apply did not drop")
	}
}

func TestLocalRuleCloneNil(t *testing.T) {
	var r *LocalRule
	if r.Clone() != nil {
		t.Error("Clone of nil rule must be nil")
	}
}

// TestGlobalInstallDoesNotRaceSharedPointer reinstalls a rule pointer
// that a concurrent reader keeps rendering; under -race the seed code
// fails here because Install wrote Version through the shared pointer.
func TestGlobalInstallDoesNotRaceSharedPointer(t *testing.T) {
	g := NewGlobal(flow.NewTable())
	shared := &GlobalRule{FID: 42, Modifies: []FieldValue{{Field: packet.FieldDstIP, Value: []byte{1, 2, 3, 4}}}}
	g.Install(shared)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			_ = shared.String() // reader holding the original pointer
		}
	}()
	for i := 0; i < 2000; i++ {
		g.Install(shared) // reinstall must not write through `shared`
	}
	<-done
	if got, ok := g.Lookup(42); !ok || got.Version == 0 {
		t.Fatalf("reinstalls did not version the stored rule: %+v", got)
	}
}

// TestGlobalRuleSizeClass: a GlobalRule is 152 bytes, in Go's 160-byte
// size class, and every flow holds one — 32 768 of them on the
// benchmark's wide workload, where it is the whole of a plain rule's
// allocation. Its header work is its program alone (200 bytes, the
// 208-byte class, while it also kept its stack work as two slices), and
// its batches' plan one pointer into the rule's room. A field past the
// spare word costs every flow another 16 bytes (176).
func TestGlobalRuleSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(GlobalRule{}); size != 152 {
		t.Errorf("GlobalRule is %d bytes, want 152", size)
	}
}

// TestConsolidateIsOneAllocation: a short chain's rule — batches,
// functions, guards, plan and program — is one block, a forward-only one
// a GlobalRule alone (core's TestSetupBlockSizeClass pins the room's
// size); the merged values and the residual stack work are merged in
// locals and live only in the program; a rule past the block's room
// still consolidates, into storage of its own.
func TestConsolidateIsOneAllocation(t *testing.T) {
	fn := func(name string) []sfunc.Func {
		return []sfunc.Func{{Name: name, Class: sfunc.ClassIgnore, Run: func(sfunc.Args, *packet.Packet) (uint64, error) { return 1, nil }}}
	}
	chain1 := []Contribution{
		{NF: "mazunat", Rule: &LocalRule{Actions: []HeaderAction{
			Modify(packet.FieldSrcIP, []byte{198, 51, 100, 1}),
			Modify(packet.FieldSrcPort, packet.PutUint16(20000)),
		}}},
		{NF: "maglev", Rule: &LocalRule{Actions: []HeaderAction{Modify(packet.FieldDstIP, []byte{192, 168, 1, 10})}, Funcs: []uint8{0}}, Site: site("maglev", fn("conntrack")...)},
		{NF: "monitor", Rule: &LocalRule{Actions: []HeaderAction{Forward()}, Funcs: []uint8{0}}, Site: site("monitor", fn("count")...)},
		{NF: "ipfilter", Rule: &LocalRule{Actions: []HeaderAction{Forward()}}},
	}
	failover := Guard{Ref: Ref{At: 1}, Word: new(atomic.Uint64), AtLeast: 1}
	forwards := []Contribution{
		{NF: "fw1", Rule: &LocalRule{Actions: []HeaderAction{Forward()}}},
		{NF: "fw2", Rule: &LocalRule{Actions: []HeaderAction{Forward()}}},
		{NF: "fw3", Rule: &LocalRule{Actions: []HeaderAction{Forward()}}},
	}
	// A VPN gateway's recording: a tag popped off the packet on the way
	// in, an AH pushed and popped again, an AH and a tag pushed on the
	// way out, and a rewrite.
	vpn := []Contribution{
		{NF: "vpn-in", Rule: &LocalRule{Actions: []HeaderAction{
			Decap(packet.HeaderVLAN),
			Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 7, Seq: 1}),
		}}},
		{NF: "vpn-out", Rule: &LocalRule{Actions: []HeaderAction{
			Decap(packet.HeaderAH),
			Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 9, Seq: 2}),
			Encap(packet.ExtraHeader{Type: packet.HeaderVLAN, Tag: 12}),
			Modify(packet.FieldDSCP, []byte{0x2e}),
		}}},
	}
	for name, consolidate := range map[string]func() (*GlobalRule, error){
		"chain1":   func() (*GlobalRule, error) { return Consolidate(1, chain1, failover) },
		"forwards": func() (*GlobalRule, error) { return Consolidate(1, forwards) },
		"vpn":      func() (*GlobalRule, error) { return Consolidate(1, vpn) },
	} {
		var rule *GlobalRule
		if n := testing.AllocsPerRun(20, func() {
			var err error
			if rule, err = consolidate(); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: %v allocations a rule, want 1", name, n)
		}
		if rule.Modifies != nil {
			t.Errorf("%s: the rule carries Modifies %v beside its program", name, rule.Modifies)
		}
		for _, a := range program(t, rule) {
			if a.Kind != ActionModify {
				continue
			}
			if at := &a.Value[0]; uintptr(unsafe.Pointer(at)) < uintptr(unsafe.Pointer(&rule.Prog[0])) ||
				uintptr(unsafe.Pointer(at)) >= uintptr(unsafe.Pointer(&rule.Prog[0]))+uintptr(len(rule.Prog)) {
				t.Errorf("%s: the %v value is not the program's operand", name, a.Field)
			}
		}
	}
	if rule, err := Consolidate(1, vpn); err != nil || rule.String() != "fid:00001 -> decap(VLAN) encap(AH) encap(VLAN) modify(DSCP) [v0]" {
		t.Errorf("VPN rule %v, %v", rule, err)
	}
	rule, err := Consolidate(1, chain1, failover)
	if err != nil {
		t.Fatal(err)
	}
	if len(rule.Batches) != 2 || rule.Plan.String() != "[0 1]" || len(program(t, rule)) != 3 ||
		rule.Guards == nil || rule.Guards.Next != nil || rule.Spans != nil {
		t.Errorf("Chain1 rule %v: plan %v, spans %v", rule, rule.Plan, rule.Spans)
	}
	long := append(append([]Contribution(nil), chain1...), chain1...)
	for i := range long[4:] {
		long[4+i].NF += "-again"
	}
	if rule, err := Consolidate(1, long, failover, failover); err != nil || len(rule.Batches) != 4 ||
		rule.Plan.String() != "[0 1 2 3]" || len(program(t, rule)) != 3 || rule.Guards.Next == nil {
		t.Errorf("a chain past the block: %v, %v", rule, err)
	}
}

// TestConsolidateRefusesWhatNoProgramCarries: header work past what a
// program can hold — more than 64 KiB of it, here 5 462 residual encaps
// — is not consolidatable: the flow stays on the slow path, rather than
// being served from anything but a program.
func TestConsolidateRefusesWhatNoProgramCarries(t *testing.T) {
	const n = (0xffff-progOps)/encapLen + 1
	acts := make([]HeaderAction, n)
	for i := range acts {
		acts[i] = Encap(packet.ExtraHeader{Type: packet.HeaderVLAN, Tag: uint16(i % 4096)})
	}
	if rule, err := Consolidate(1, []Contribution{{NF: "tagger", Rule: &LocalRule{Actions: acts}}}); !errors.Is(err, ErrNotConsolidatable) {
		t.Errorf("%d encaps: %v, %v; want ErrNotConsolidatable", n, rule, err)
	}
	if rule, err := Consolidate(1, []Contribution{{NF: "tagger", Rule: &LocalRule{Actions: acts[:n-1]}}}); err != nil || len(rule.Prog) > 0xffff {
		t.Errorf("%d encaps: %v, %v; want a program of at most 64 KiB", n-1, rule, err)
	}
}

// TestConsolidateRefusesOversizedBatch: a batch holds its calls and the
// flow's words as 16-bit lengths, so a contribution past either is
// refused, not bound cut short; an add to a word the flow does not have
// is refused too.
func TestConsolidateRefusesOversizedBatch(t *testing.T) {
	count := sfunc.Func{Name: "count", Class: sfunc.ClassIgnore, Price: cost.CounterUpdate,
		Adds: []sfunc.Add{{Word: 1, Operand: sfunc.One}}}
	fwd := []HeaderAction{Forward()}
	for name, c := range map[string]Contribution{
		"calls": {NF: "m", Rule: &LocalRule{Actions: fwd, Funcs: make([]uint8, sfunc.MaxBatch+1)}, Site: site("m", count), State: make(sfunc.State, 2)},
		"words": {NF: "m", Rule: &LocalRule{Actions: fwd, Funcs: []uint8{0}}, Site: site("m", count), State: make(sfunc.State, sfunc.MaxBatch+1)},
		"word":  {NF: "m", Rule: &LocalRule{Actions: fwd, Funcs: []uint8{0}}, Site: site("m", count), State: make(sfunc.State, 1)},
	} {
		if rule, err := Consolidate(1, []Contribution{c}); err == nil {
			t.Errorf("%s: consolidated %v", name, rule)
		}
	}
	ok := Contribution{NF: "m", Rule: &LocalRule{Actions: fwd, Funcs: []uint8{0}}, Site: site("m", count), State: make(sfunc.State, 2)}
	if _, err := Consolidate(1, []Contribution{ok}); err != nil {
		t.Errorf("a batch within bounds: %v", err)
	}
}

// TestGuardSize pins a guard node at 32 bytes: a reference, the word its
// condition reads, the threshold and the next node — no closure and no
// state slice (48 bytes when a condition was NF code). A rule with its
// room, what a firing's rebuild allocates, is 440 bytes — with the
// allocator's 8-byte header, in the 448-byte size class: the room holds
// the batches' plan — schedule, charge and Monitor's two adds — and the
// program, the one copy of the rule's header work (584 bytes, the
// 640-byte class, while the rule also kept its merged modifies and its
// stack work as slices).
func TestGuardSize(t *testing.T) {
	if n := unsafe.Sizeof(Guard{}); n != 32 {
		t.Errorf("a guard takes %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(ruleBlock{}); n != 440 {
		t.Errorf("a rule with its room takes %d bytes, want 440", n)
	}
	if n := unsafe.Sizeof(ruleBlock{}) + 8; n <= 416 || n > 448 {
		t.Errorf("a rule with its room takes %d bytes with its malloc header: not in the 448-byte size class", n)
	}
}
