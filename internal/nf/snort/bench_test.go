package snort

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func benchPayload(n int, marker string) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	copy(buf[n/2:], marker)
	return buf
}

// BenchmarkInspectContent measures literal content matching over the
// default rule set (the Snort fast path).
func BenchmarkInspectContent(b *testing.B) {
	s, err := New("ids", DefaultRules())
	if err != nil {
		b.Fatal(err)
	}
	ft := packet.FiveTuple{SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2), SrcPort: 1, DstPort: 80, Proto: packet.ProtoTCP}
	st := make(core.State, s.flows.Words)
	s.assign(st, ft)
	payload := benchPayload(256, "nothing-here")
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.inspect(1, st, payload)
	}
}

// BenchmarkInspectRegexMatch measures the regex path with a matching
// payload (match -> log append dominates).
func BenchmarkInspectRegexMatch(b *testing.B) {
	rules, err := ParseRules(`alert tcp any any -> any any (pcre:"/select\s.+\sfrom/i"; msg:"sqli"; sid:1;)`)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New("ids", rules)
	if err != nil {
		b.Fatal(err)
	}
	ft := packet.FiveTuple{SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2), SrcPort: 1, DstPort: 80, Proto: packet.ProtoTCP}
	st := make(core.State, s.flows.Words)
	s.assign(st, ft)
	payload := benchPayload(256, "SELECT secret FROM users")
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.inspect(1, st, payload)
	}
}

// BenchmarkParseRules measures rule-file loading.
func BenchmarkParseRules(b *testing.B) {
	text := `
alert tcp any any -> any 80 (msg:"exploit"; content:"ATTACK"; sid:1001;)
log tcp any any -> any any (pcre:"/GET \/admin/"; msg:"admin"; sid:1005;)
pass ip any any -> any any (content:"HEALTHCHECK"; sid:1004;)
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRules(text); err != nil {
			b.Fatal(err)
		}
	}
}
