package snort

import (
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func TestParseRulesBasic(t *testing.T) {
	rules, err := ParseRules(`
# comment line

alert tcp any any -> any 80 (msg:"exploit attempt"; content:"ATTACK"; sid:1001;)
log   udp any any -> any any (content:"LOGIN"; msg:"login seen"; sid:1002;)
pass  ip  any any -> any any (content:"HEALTHCHECK"; sid:1003;)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules", len(rules))
	}
	r := rules[0]
	if r.Type != TypeAlert || r.Proto != packet.ProtoTCP || r.DstPort != 80 ||
		string(r.Content) != "ATTACK" || r.Msg != "exploit attempt" || r.ID != 1001 {
		t.Errorf("rule 0 = %+v", r)
	}
	if rules[1].Type != TypeLog || rules[1].Proto != packet.ProtoUDP || rules[1].DstPort != 0 {
		t.Errorf("rule 1 = %+v", rules[1])
	}
	if rules[2].Type != TypePass || rules[2].Proto != 0 {
		t.Errorf("rule 2 = %+v", rules[2])
	}
}

func TestParsePCRE(t *testing.T) {
	rules, err := ParseRules(`alert tcp any any -> any any (pcre:"/select\s.+\sfrom/i"; msg:"sqli"; sid:2001;)`)
	if err != nil {
		t.Fatal(err)
	}
	pat := rules[0].Pattern
	if pat == nil {
		t.Fatal("no pattern compiled")
	}
	if !pat.MatchString("SELECT secret FROM t") {
		t.Error("case-insensitive flag not applied")
	}
	if pat.MatchString("nothing here") {
		t.Error("pattern over-matches")
	}
}

func TestParseNocase(t *testing.T) {
	rules, err := ParseRules(`alert tcp any any -> any any (content:"EvIl"; nocase; sid:3001;)`)
	if err != nil {
		t.Fatal(err)
	}
	r := rules[0]
	if r.Content != nil {
		t.Error("nocase content should compile to a pattern")
	}
	if !r.Pattern.MatchString("totally evil payload") {
		t.Error("nocase match failed")
	}
}

func TestParseQuotedSemicolonAndEscapes(t *testing.T) {
	rules, err := ParseRules(`alert tcp any any -> any any (msg:"semi;colon and \"quote\""; content:"X"; sid:4001;)`)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Msg != `semi;colon and "quote"` {
		t.Errorf("msg = %q", rules[0].Msg)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		rule string
	}{
		{"no options", "alert tcp any any -> any 80"},
		{"bad action", `drop tcp any any -> any 80 (content:"X"; sid:1;)`},
		{"bad proto", `alert icmp any any -> any 80 (content:"X"; sid:1;)`},
		{"bad arrow", `alert tcp any any <> any 80 (content:"X"; sid:1;)`},
		{"src not any", `alert tcp 10.0.0.1 any -> any 80 (content:"X"; sid:1;)`},
		{"bad port", `alert tcp any any -> any http (content:"X"; sid:1;)`},
		{"port overflow", `alert tcp any any -> any 99999 (content:"X"; sid:1;)`},
		{"no sid", `alert tcp any any -> any 80 (content:"X";)`},
		{"no predicate", `alert tcp any any -> any 80 (msg:"X"; sid:1;)`},
		{"unknown option", `alert tcp any any -> any 80 (content:"X"; depth:5; sid:1;)`},
		{"unquoted msg", `alert tcp any any -> any 80 (msg:hello; content:"X"; sid:1;)`},
		{"unterminated quote", `alert tcp any any -> any 80 (msg:"oops; content:"X"; sid:1;)`},
		{"bad pcre", `alert tcp any any -> any 80 (pcre:"/([/"; sid:1;)`},
		{"bad pcre flag", `alert tcp any any -> any 80 (pcre:"/x/z"; sid:1;)`},
		{"nocase without content", `alert tcp any any -> any 80 (nocase; pcre:"/x/"; sid:1;)`},
		{"too few header fields", `alert tcp any -> any 80 (content:"X"; sid:1;)`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseRules(tt.rule); err == nil {
				t.Errorf("accepted: %s", tt.rule)
			}
		})
	}
}

func TestParsedRulesDriveTheIDS(t *testing.T) {
	rules, err := ParseRules(`
alert tcp any any -> any 80 (content:"ATTACK"; msg:"sig"; sid:1001;)
log tcp any any -> any 80 (pcre:"/GET \/admin/"; msg:"admin"; sid:1005;)
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("ids", rules)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(payload string) *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2),
			SrcPort: 9, DstPort: 80, Proto: packet.ProtoTCP, Payload: []byte(payload),
		})
	}
	ft := packet.FiveTuple{SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2), SrcPort: 9, DstPort: 80, Proto: packet.ProtoTCP}
	st := make(core.State, s.flows.Words)
	s.assign(st, ft)
	s.inspect(1, st, mk("ATTACK inside").Payload())
	s.inspect(1, st, mk("GET /admin HTTP/1.1").Payload())
	logs := s.Logs()
	if len(logs) != 2 || logs[0].RuleID != 1001 || logs[1].RuleID != 1005 {
		t.Errorf("logs = %+v", logs)
	}
}

func TestParseRulesEmptyInput(t *testing.T) {
	rules, err := ParseRules("\n\n# nothing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Errorf("rules = %v", rules)
	}
}

func TestParseErrorIncludesLineNumber(t *testing.T) {
	_, err := ParseRules("alert tcp any any -> any 80 (content:\"X\"; sid:1;)\nbogus rule here (x; sid:2;)")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line number", err)
	}
}
