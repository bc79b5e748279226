package chainspec

import (
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

const fullSpec = `{
  "name": "edge-chain",
  "platform": "onvm",
  "nfs": [
    {"type": "mazunat", "internal_prefix": "10.0.0.0/8", "external_ip": "198.51.100.1"},
    {"type": "maglev", "backends": [
        {"name": "web-1", "ip": "192.168.1.10", "port": 8080},
        {"name": "web-2", "ip": "192.168.1.11", "port": 8080}]},
    {"type": "monitor"},
    {"type": "ipfilter", "acl_size": 50}
  ]
}`

func TestParseAndBuildFullSpec(t *testing.T) {
	spec, err := Parse([]byte(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "edge-chain" || spec.Platform != "onvm" {
		t.Errorf("spec header = %+v", spec)
	}
	chain, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 4 {
		t.Fatalf("chain len = %d", len(chain))
	}
	wantNames := []string{"mazunat1", "maglev2", "monitor3", "ipfilter4"}
	for i, nf := range chain {
		if nf.Name() != wantNames[i] {
			t.Errorf("nf %d name = %q, want %q", i, nf.Name(), wantNames[i])
		}
	}
}

func TestBuiltChainActuallyRuns(t *testing.T) {
	spec, err := Parse([]byte(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := bess.New(bess.Config{Chain: chain, Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr, err := trace.Generate(trace.Config{Seed: 1, Flows: 10, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := platform.Run(p, tr.Packets())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FastPath == 0 {
		t.Error("spec-built chain never used the fast path")
	}
}

func TestAllNFTypesBuild(t *testing.T) {
	specs := []string{
		`{"type": "ipfilter"}`,
		`{"type": "ipfilter", "acl_size": 10, "default_deny": true}`,
		`{"type": "monitor"}`,
		`{"type": "snort"}`,
		`{"type": "snort", "rules": "alert tcp any any -> any 80 (content:\"X\"; sid:1;)"}`,
		`{"type": "maglev", "backends": [{"name": "a", "ip": "1.2.3.4", "port": 80}]}`,
		`{"type": "mazunat", "internal_prefix": "10.0.0.0/8", "external_ip": "1.1.1.1"}`,
		`{"type": "vpn-encap"}`,
		`{"type": "vpn-decap"}`,
		`{"type": "dos", "syn_threshold": 50}`,
		`{"type": "gateway", "next_hop_mac": "02:00:00:00:00:01", "voice_ports": [5060]}`,
		`{"type": "ratelimiter", "quota": 500}`,
		`{"type": "synthetic", "cycles": 500, "class": "write"}`,
	}
	for _, nfJSON := range specs {
		t.Run(nfJSON, func(t *testing.T) {
			spec, err := Parse([]byte(`{"name": "x", "nfs": [` + nfJSON + `]}`))
			if err != nil {
				t.Fatal(err)
			}
			chain, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if len(chain) != 1 || chain[0].Name() == "" {
				t.Errorf("chain = %v", chain)
			}
		})
	}
}

func TestExplicitNames(t *testing.T) {
	spec, err := Parse([]byte(`{"name": "x", "nfs": [{"type": "monitor", "name": "edge-mon"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].Name() != "edge-mon" {
		t.Errorf("name = %q", chain[0].Name())
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"invalid json", `{`},
		{"empty chain", `{"name": "x", "nfs": []}`},
		{"unknown platform", `{"name": "x", "platform": "vpp", "nfs": [{"type": "monitor"}]}`},
		{"unknown field", `{"name": "x", "nfs": [{"type": "monitor", "bogus": 1}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse([]byte(tt.json)); err == nil {
				t.Error("accepted")
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	tests := []struct {
		name string
		nf   string
		want string
	}{
		{"unknown type", `{"type": "teleporter"}`, "unknown NF type"},
		{"maglev no backends", `{"type": "maglev"}`, "backends"},
		{"maglev bad ip", `{"type": "maglev", "backends": [{"name": "a", "ip": "nope", "port": 1}]}`, "IPv4"},
		{"nat bad cidr", `{"type": "mazunat", "internal_prefix": "10.0.0.0", "external_ip": "1.1.1.1"}`, "CIDR"},
		{"nat bad prefix bits", `{"type": "mazunat", "internal_prefix": "10.0.0.0/99", "external_ip": "1.1.1.1"}`, "prefix length"},
		{"nat bad external", `{"type": "mazunat", "internal_prefix": "10.0.0.0/8", "external_ip": "256.1.1.1"}`, "IPv4"},
		{"gateway bad mac", `{"type": "gateway", "next_hop_mac": "zz:00:00:00:00:01"}`, "MAC"},
		{"gateway short mac", `{"type": "gateway", "next_hop_mac": "02:00"}`, "MAC"},
		{"synthetic bad class", `{"type": "synthetic", "class": "psychic"}`, "class"},
		{"snort bad rules", `{"type": "snort", "rules": "garbage"}`, "snort"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := Parse([]byte(`{"name": "x", "nfs": [` + tt.nf + `]}`))
			if err != nil {
				t.Fatal(err)
			}
			_, err = spec.Build()
			if err == nil {
				t.Fatal("built successfully, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want mention of %q", err, tt.want)
			}
		})
	}
}

func TestParseHelpers(t *testing.T) {
	if ip, err := parseIPv4("1.2.3.4"); err != nil || ip != [4]byte{1, 2, 3, 4} {
		t.Errorf("parseIPv4 = %v, %v", ip, err)
	}
	if _, err := parseIPv4("1.2.3"); err == nil {
		t.Error("short IP accepted")
	}
	if ip, bits, err := ParseCIDR("172.16.0.0/12"); err != nil || bits != 12 || ip != [4]byte{172, 16, 0, 0} {
		t.Errorf("ParseCIDR = %v/%d, %v", ip, bits, err)
	}
	if mac, err := parseMAC("02:ff:00:11:22:33"); err != nil || mac != [6]byte{0x02, 0xff, 0x00, 0x11, 0x22, 0x33} {
		t.Errorf("parseMAC = %v, %v", mac, err)
	}
}
