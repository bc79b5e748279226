package server

import (
	"net/http"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/topo"
)

const testTopoJSON = `{
  "name": "edge",
  "chains": [
    {"name": "web", "nfs": [
      {"type": "snort"}, {"type": "monitor", "name": "mon"}]},
    {"name": "bulk", "nfs": [
      {"type": "ratelimiter", "quota": 1000000}, {"type": "monitor", "name": "mon"}]}
  ],
  "policies": [
    {"chain": "web", "tenant": 1, "dst_port_min": 80},
    {"chain": "bulk", "tenant": 2, "dst_port_min": 9000}
  ],
  "tenants": [{"id": 1, "rule_quota": 100}, {"id": 2}]
}`

// TestTopoStageAndGet drives the staging round trip: GET before any
// POST reports nothing staged, a valid POST echoes the summary, GET
// reflects it afterwards, and a second POST replaces the document.
func TestTopoStageAndGet(t *testing.T) {
	d := testDaemon(t, Config{Pump: PumpConfig{Disable: true}})
	u := d.URL() + "/v1/topo"

	var empty topoResponse
	if code := apiJSON(t, http.MethodGet, u, nil, &empty); code != http.StatusOK {
		t.Fatalf("GET before staging: HTTP %d", code)
	}
	if empty.Staged {
		t.Fatalf("fresh daemon reports a staged topology: %+v", empty)
	}

	var posted topoResponse
	if code := apiJSON(t, http.MethodPost, u, []byte(testTopoJSON), &posted); code != http.StatusOK {
		t.Fatalf("POST: HTTP %d", code)
	}
	if !posted.Staged || posted.Name != "edge" {
		t.Fatalf("POST response = %+v", posted)
	}
	if len(posted.Chains) != 2 || posted.Policies != 2 || posted.Tenants != 2 {
		t.Fatalf("POST summary = %+v", posted)
	}

	var got topoResponse
	if code := apiJSON(t, http.MethodGet, u, nil, &got); code != http.StatusOK {
		t.Fatalf("GET after staging: HTTP %d", code)
	}
	if got.Name != "edge" || len(got.Chains) != 2 {
		t.Fatalf("GET after staging = %+v", got)
	}

	replacement := `{"name":"tiny","chains":[{"name":"only","nfs":[{"type":"monitor"}]}]}`
	if code := apiJSON(t, http.MethodPost, u, []byte(replacement), &posted); code != http.StatusOK {
		t.Fatalf("replacement POST: HTTP %d", code)
	}
	if code := apiJSON(t, http.MethodGet, u, nil, &got); code != http.StatusOK {
		t.Fatalf("GET after replacement: HTTP %d", code)
	}
	if got.Name != "tiny" || len(got.Chains) != 1 {
		t.Fatalf("replacement not staged: %+v", got)
	}
}

// TestTopoErrorCodes asserts the rejection families: topo.* spec
// errors, chainspec.* NF construction errors surfaced by the dry-run
// build, and the method gate. A rejected POST must not clobber a
// previously staged document.
func TestTopoErrorCodes(t *testing.T) {
	d := testDaemon(t, Config{Pump: PumpConfig{Disable: true}})
	u := d.URL() + "/v1/topo"

	var posted topoResponse
	if code := apiJSON(t, http.MethodPost, u, []byte(testTopoJSON), &posted); code != http.StatusOK {
		t.Fatalf("seed POST: HTTP %d", code)
	}

	cases := []struct {
		name string
		body string
		want errcode.Code
	}{
		{"malformed JSON", `{`, errcode.CodeOf(topo.ErrSpecInvalid)},
		{"no chains", `{"name":"x","chains":[]}`, errcode.CodeOf(topo.ErrNoChains)},
		{"policy targets unknown chain",
			`{"chains":[{"name":"a","nfs":[{"type":"monitor"}]}],
			  "policies":[{"chain":"ghost"}]}`,
			errcode.CodeOf(topo.ErrPolicyUnknownChain)},
		{"bad tenant id",
			`{"chains":[{"name":"a","nfs":[{"type":"monitor"}]}],
			  "tenants":[{"id":0}]}`,
			errcode.CodeOf(topo.ErrTenantInvalid)},
		{"unknown NF type via dry-run build",
			`{"chains":[{"name":"a","nfs":[{"type":"teleporter"}]}]}`,
			errcode.CodeOf(chainspec.ErrUnknownNFType)},
		{"NF its constructor rejects via dry-run build",
			`{"chains":[{"name":"a","nfs":[{"type":"maglev","table_size":4,
			  "backends":[{"name":"b","ip":"192.168.1.10","port":80}]}]}]}`,
			errcode.CodeOf(chainspec.ErrNFConfig)},
		{"ACL size above 65536 via dry-run build",
			`{"chains":[{"name":"a","nfs":[{"type":"ipfilter","acl_size":70000}]}]}`,
			errcode.CodeOf(chainspec.ErrNFConfig)},
		{"one NF named twice in a chain",
			`{"chains":[{"name":"a","nfs":[{"type":"monitor","name":"m"},{"type":"monitor","name":"m"}]}]}`,
			errcode.CodeOf(topo.ErrSpecInvalid)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, status := apiErrCode(t, http.MethodPost, u, []byte(tc.body))
			if code != tc.want {
				t.Fatalf("code = %q, want %q", code, tc.want)
			}
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", status)
			}
		})
	}

	code, status := apiErrCode(t, http.MethodDelete, u, nil)
	if want := errcode.CodeOf(ErrMethodNotAllowed); code != want {
		t.Fatalf("DELETE code = %q, want %q", code, want)
	}
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status = %d", status)
	}

	// The staged document survived every rejection.
	var got topoResponse
	if code := apiJSON(t, http.MethodGet, u, nil, &got); code != http.StatusOK {
		t.Fatalf("GET: HTTP %d", code)
	}
	if got.Name != "edge" {
		t.Fatalf("staged topology clobbered by rejected POST: %+v", got)
	}
}
