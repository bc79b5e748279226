package mat

import (
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

func flowFID(n uint32) flow.FID { return flow.FID(n) }

func TestGlobalRuleString(t *testing.T) {
	tests := []struct {
		name string
		rule *GlobalRule
		want []string
	}{
		{
			"drop",
			compiled(&GlobalRule{FID: 1, Drop: true}),
			[]string{"fid:00001", "drop"},
		},
		{
			"pure forward",
			compiled(&GlobalRule{FID: 2}),
			[]string{"forward", "[v0]"},
		},
		{
			"not compiled",
			&GlobalRule{FID: 2, Drop: true},
			[]string{"fid:00002 -> invalid program [v0]"},
		},
		{
			"merged modifies in figure-1 notation",
			compiled(&GlobalRule{FID: 3, Modifies: []FieldValue{
				{Field: packet.FieldDstIP, Value: []byte{1, 2, 3, 4}},
				{Field: packet.FieldDstPort, Value: packet.PutUint16(80)},
			}}),
			[]string{"modify(DIP,DPort)"},
		},
		{
			"stack ops",
			func() *GlobalRule {
				r, err := Consolidate(4, []Contribution{{NF: "vpn", Rule: &LocalRule{Actions: []HeaderAction{
					Decap(packet.HeaderAH), Encap(packet.ExtraHeader{Type: packet.HeaderVLAN}),
				}}}})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}(),
			[]string{"fid:00004 -> decap(AH) encap(VLAN) [v0]"},
		},
		{
			"batches and version",
			func() *GlobalRule {
				r := &GlobalRule{FID: 5, Version: 3, Batches: []sfunc.Batch{
					sfunc.NewBatch(&sfunc.Site{NF: "a", Funcs: []sfunc.Func{{Name: "f", Class: sfunc.ClassRead,
						Run: func(sfunc.Args, *packet.Packet) (uint64, error) { return 0, nil }}}}, []uint8{0}, 5, nil),
				}}
				r.Plan, _ = sfunc.ExecIn(nil, nil, nil, r.Batches)
				return r
			}(),
			[]string{"1 SF batch(es) in 1 stage(s)", "[v3]"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := tt.rule.String()
			for _, want := range tt.want {
				if !strings.Contains(s, want) {
					t.Errorf("String() = %q, missing %q", s, want)
				}
			}
		})
	}
}

// compiled is r with its program built.
func compiled(r *GlobalRule) *GlobalRule {
	r.Compile()
	return r
}

func TestGlobalDumpSortedByFID(t *testing.T) {
	g := NewGlobal(flow.NewTable())
	for _, fid := range []uint32{30, 10, 20} {
		g.Install(&GlobalRule{FID: flowFID(fid)})
	}
	dump := g.Dump()
	lines := strings.Split(strings.TrimSpace(dump), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump lines = %d\n%s", len(lines), dump)
	}
	if !strings.HasPrefix(lines[0], "fid:0000a") ||
		!strings.HasPrefix(lines[1], "fid:00014") ||
		!strings.HasPrefix(lines[2], "fid:0001e") {
		t.Errorf("dump not FID-sorted:\n%s", dump)
	}
}

func TestGlobalForEach(t *testing.T) {
	g := NewGlobal(flow.NewTable())
	for fid := uint32(0); fid < 5; fid++ {
		g.Install(&GlobalRule{FID: flowFID(fid), FixedCycles: uint64(fid)})
	}
	sum := uint64(0)
	g.ForEach(func(r *GlobalRule) { sum += r.FixedCycles })
	if sum != 0+1+2+3+4 {
		t.Errorf("ForEach visited sum = %d", sum)
	}
	empty := NewGlobal(flow.NewTable())
	calls := 0
	empty.ForEach(func(*GlobalRule) { calls++ })
	if calls != 0 {
		t.Errorf("ForEach on empty table made %d calls", calls)
	}
}
