package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/errcode"
)

// TestAPIErrorCodes asserts every rejection class by machine code —
// resolved from the same sentinels the handlers wrap, never by
// matching message text.
func TestAPIErrorCodes(t *testing.T) {
	d := testDaemon(t, Config{Pump: PumpConfig{Flows: 30}})
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	u := d.URL()

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		want       errcode.Code
		wantStatus int
	}{
		{"malformed plan JSON", http.MethodPost, "/v1/plan", `{`,
			errcode.CodeOf(chainspec.ErrSpecInvalid), http.StatusBadRequest},
		{"unknown plan op", http.MethodPost, "/v1/plan", `{"op":"explode"}`,
			errcode.CodeOf(core.ErrPlanInvalid), http.StatusBadRequest},
		{"unknown plan NF", http.MethodPost, "/v1/plan", `{"op":"remove","name":"nosuch"}`,
			errcode.CodeOf(core.ErrPlanUnknownNF), http.StatusBadRequest},
		{"unknown NF type", http.MethodPost, "/v1/plan",
			`{"op":"insert","pos":0,"nf":{"type":"teleporter"}}`,
			errcode.CodeOf(chainspec.ErrUnknownNFType), http.StatusBadRequest},
		{"unsupported plan version", http.MethodPost, "/v1/plan", `{"version":9,"op":"remove","name":"x"}`,
			errcode.CodeOf(chainspec.ErrUnsupportedVersion), http.StatusBadRequest},
		{"NF its constructor rejects", http.MethodPost, "/v1/plan",
			`{"op":"insert","pos":0,"nf":{"type":"maglev","name":"lb-b","table_size":9,
			  "backends":[{"name":"b","ip":"192.168.1.10","port":80}]}}`,
			errcode.CodeOf(chainspec.ErrNFConfig), http.StatusBadRequest},
		{"negative ACL size", http.MethodPost, "/v1/plan",
			`{"op":"insert","pos":0,"nf":{"type":"ipfilter","name":"fw-neg","acl_size":-1}}`,
			errcode.CodeOf(chainspec.ErrNFConfig), http.StatusBadRequest},
		{"ACL size above 65536", http.MethodPost, "/v1/plan",
			`{"op":"insert","pos":0,"nf":{"type":"ipfilter","name":"fw-big","acl_size":70000}}`,
			errcode.CodeOf(chainspec.ErrNFConfig), http.StatusBadRequest},
		{"prime maglev table above 65537", http.MethodPost, "/v1/plan",
			`{"op":"insert","pos":0,"nf":{"type":"maglev","name":"lb-big","table_size":65539,
			  "backends":[{"name":"b","ip":"192.168.1.10","port":80}]}}`,
			errcode.CodeOf(chainspec.ErrNFConfig), http.StatusBadRequest},
		{"restore while serving", http.MethodPost, "/v1/restore",
			`{"checkpoint":"AAAA"}`,
			errcode.CodeOf(ErrBadState), http.StatusConflict},
		{"plan via GET", http.MethodGet, "/v1/plan", "",
			errcode.CodeOf(ErrMethodNotAllowed), http.StatusMethodNotAllowed},
		{"status via POST", http.MethodPost, "/v1/status", "",
			errcode.CodeOf(ErrMethodNotAllowed), http.StatusMethodNotAllowed},
		{"unknown path", http.MethodGet, "/v1/nope", "",
			errcode.CodeOf(ErrNotFound), http.StatusNotFound},
		{"restore without payload", http.MethodPost, "/v1/restore", `{}`,
			errcode.CodeOf(ErrBadState), http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, status := apiErrCode(t, tc.method, u+tc.path, []byte(tc.body))
			if code != tc.want {
				t.Fatalf("code = %q, want %q", code, tc.want)
			}
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d", status, tc.wantStatus)
			}
		})
	}
}

// TestRestoreErrorCodesWhileDrained covers the restore-specific
// rejections that need a drained daemon to reach.
func TestRestoreErrorCodesWhileDrained(t *testing.T) {
	d := testDaemon(t, Config{Pump: PumpConfig{Disable: true}})

	// Empty payload: no checkpoint anywhere.
	code, _ := apiErrCode(t, http.MethodPost, d.URL()+"/v1/restore", []byte(`{}`))
	if want := errcode.CodeOf(ErrBadRequest); code != want {
		t.Fatalf("empty restore code = %q, want %q", code, want)
	}
	// Invalid base64.
	code, _ = apiErrCode(t, http.MethodPost, d.URL()+"/v1/restore",
		[]byte(`{"checkpoint":"!!!"}`))
	if want := errcode.CodeOf(ErrBadRequest); code != want {
		t.Fatalf("bad base64 code = %q, want %q", code, want)
	}
	// Valid base64, corrupt checkpoint image.
	code, status := apiErrCode(t, http.MethodPost, d.URL()+"/v1/restore",
		[]byte(`{"checkpoint":"AAAAAAAA"}`))
	if want := errcode.Code("wal.checkpoint_corrupt"); code != want {
		t.Fatalf("corrupt checkpoint code = %q, want %q", code, want)
	}
	if status != http.StatusBadRequest {
		t.Fatalf("corrupt checkpoint status = %d", status)
	}
	// Missing file path.
	code, _ = apiErrCode(t, http.MethodPost, d.URL()+"/v1/restore",
		[]byte(`{"checkpoint_path":"/nonexistent/p.ckpt"}`))
	if want := errcode.CodeOf(ErrCheckpointIO); code != want {
		t.Fatalf("missing file code = %q, want %q", code, want)
	}
}

// TestRestoreRefusesServedEngine holds restore to Engine.Restore's
// precondition, a fresh engine: a daemon that has served traffic is
// refused even when drained, and so is a second restore, so neither
// merges a checkpoint into the flows the engine already tracks.
func TestRestoreRefusesServedEngine(t *testing.T) {
	a := testDaemon(t, Config{Pump: PumpConfig{Flows: 40}})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitWindows(t, a, 2)
	var st stateResponse
	if code := apiJSON(t, http.MethodPost, a.URL()+"/v1/drain", nil, &st); code != http.StatusOK {
		t.Fatalf("drain: HTTP %d", code)
	}
	var cp checkpointResponse
	if code := apiJSON(t, http.MethodPost, a.URL()+"/v1/checkpoint",
		[]byte(`{"inline":true}`), &cp); code != http.StatusOK {
		t.Fatalf("checkpoint: HTTP %d", code)
	}
	body, _ := json.Marshal(restoreRequest{Checkpoint: cp.Checkpoint, WAL: cp.WAL})

	flows := a.Engine().FlowLen()
	code, status := apiErrCode(t, http.MethodPost, a.URL()+"/v1/restore", body)
	if want := errcode.CodeOf(ErrBadState); code != want || status != http.StatusConflict {
		t.Fatalf("restore into a served engine: %q (HTTP %d), want %q", code, status, want)
	}
	if got := a.Engine().FlowLen(); got != flows {
		t.Fatalf("refused restore changed the flow count: %d -> %d", flows, got)
	}

	b := testDaemon(t, Config{Pump: PumpConfig{Disable: true}})
	var rr restoreResponse
	if code := apiJSON(t, http.MethodPost, b.URL()+"/v1/restore", body, &rr); code != http.StatusOK {
		t.Fatalf("restore into a fresh engine: HTTP %d", code)
	}
	if rr.Flows == 0 {
		t.Fatalf("restore brought back no flows: %+v", rr)
	}
	code, _ = apiErrCode(t, http.MethodPost, b.URL()+"/v1/restore", body)
	if want := errcode.CodeOf(ErrBadState); code != want {
		t.Fatalf("second restore: %q, want %q", code, want)
	}
	if got := b.Engine().FlowLen(); got != rr.Flows {
		t.Fatalf("second restore merged: %d flows, want %d", got, rr.Flows)
	}
}

// TestErrorsCatalog checks GET /v1/errors serves the full registry and
// that every advertised code passes the package.name format gate —
// the API-level counterpart of errcode's own registry test.
func TestErrorsCatalog(t *testing.T) {
	d := testDaemon(t, Config{Pump: PumpConfig{Disable: true}})
	var resp errorsResponse
	if code := apiJSON(t, http.MethodGet, d.URL()+"/v1/errors", nil, &resp); code != http.StatusOK {
		t.Fatalf("errors: HTTP %d", code)
	}
	if len(resp.Codes) < 20 {
		t.Fatalf("catalog suspiciously small: %d codes", len(resp.Codes))
	}
	seen := map[errcode.Code]bool{}
	for _, reg := range resp.Codes {
		if err := errcode.Validate(reg.Code); err != nil {
			t.Errorf("advertised code %q invalid: %v", reg.Code, err)
		}
		if reg.Description == "" {
			t.Errorf("code %q has no description", reg.Code)
		}
		if seen[reg.Code] {
			t.Errorf("code %q advertised twice", reg.Code)
		}
		seen[reg.Code] = true
	}
	// The server's own family must be present.
	for _, c := range []errcode.Code{
		errcode.CodeOf(ErrBadState), errcode.CodeOf(ErrStopped),
		errcode.CodeOf(ErrNotFound), errcode.CodeOf(ErrBodyTooLarge),
	} {
		if !seen[c] {
			t.Errorf("catalog missing %q", c)
		}
	}
}

// TestHTTPStatusMapping pins the code → status table's families.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		code errcode.Code
		want int
	}{
		{"chainspec.spec_invalid", http.StatusBadRequest},
		{"core.plan_unknown_nf", http.StatusBadRequest},
		{"server.bad_state", http.StatusConflict},
		{"server.method_not_allowed", http.StatusMethodNotAllowed},
		{"server.not_found", http.StatusNotFound},
		{"server.body_too_large", http.StatusRequestEntityTooLarge},
		{"wal.checkpoint_corrupt", http.StatusBadRequest},
		{"core.nf_failed", http.StatusInternalServerError},
		{errcode.Unknown, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := httpStatus(tc.code); got != tc.want {
			t.Errorf("httpStatus(%q) = %d, want %d", tc.code, got, tc.want)
		}
	}
}
