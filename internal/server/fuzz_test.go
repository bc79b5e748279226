package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/errcode"
)

// fuzzPaths are the admin mutations FuzzAdminBodies posts to, picked
// by an input's first byte. /v1/checkpoint is not among them: its path
// field writes files.
var fuzzPaths = []string{"/v1/plan", "/v1/topo", "/v1/cluster/scale", "/v1/restore"}

// FuzzAdminBodies posts hostile bodies to the admin mutations of a
// fresh pump-less daemon. No body may panic a handler or draw a 500:
// the response is 200, or a registered code rendered with the status
// httpStatus gives it, and that status is a client error.
func FuzzAdminBodies(f *testing.F) {
	maglev := func(size string) string {
		return `{"type":"maglev","name":"lb-b","table_size":` + size + `,"backends":[{"name":"b","ip":"192.168.1.10","port":80}]}`
	}
	for path, bodies := range [][]string{
		{ // plan
			`{`, `{"op":"explode"}`, `{"op":"remove","name":"nosuch"}`,
			`{"op":"insert","pos":0,"nf":{"type":"teleporter"}}`,
			`{"version":9,"op":"remove","name":"x"}`,
			`{"op":"insert","pos":2,"nf":{"type":"monitor","name":"mon-b"}}`,
			`{"op":"insert","pos":0,"nf":` + maglev("9") + `}`,
			`{"op":"insert","pos":0,"nf":` + maglev("-1") + `}`,
			`{"op":"insert","pos":0,"nf":` + maglev("1000003") + `}`,
			`{"op":"insert","pos":0,"nf":{"type":"ipfilter","acl_size":100000000}}`,
		},
		{ // topo
			testTopoJSON, `{`, `{"name":"x","chains":[]}`,
			`{"chains":[{"name":"a","nfs":[{"type":"monitor"}]}],"policies":[{"chain":"ghost"}]}`,
			`{"chains":[{"name":"a","nfs":[{"type":"monitor"}]}],"tenants":[{"id":0}]}`,
			`{"chains":[{"name":"a","nfs":[{"type":"teleporter"}]}]}`,
			`{"chains":[{"name":"a","nfs":[` + maglev("4") + `]}]}`,
			`{"chains":[{"name":"a","nfs":[{"type":"monitor","name":"m"},{"type":"monitor","name":"m"}]}]}`,
		},
		{`{"instances":2}`, ``}, // cluster/scale
		{ // restore
			`{"checkpoint":"AAAA"}`, `{}`, `{"checkpoint":"!!!"}`,
			`{"checkpoint":"AAAAAAAA"}`, `{"checkpoint":"AA=="}`,
		},
	} {
		for _, body := range bodies {
			f.Add(append([]byte{byte(path)}, body...))
		}
	}
	registered := make(map[errcode.Code]bool)
	for _, reg := range errcode.All() {
		registered[reg.Code] = true
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		path, body := fuzzPaths[int(in[0])%len(fuzzPaths)], in[1:]
		var files restoreRequest
		if json.Unmarshal(body, &files) == nil && (files.CheckpointPath != "" || files.WALPath != "") {
			t.Skip("the body names a file")
		}
		d, err := New(Config{Pump: PumpConfig{Disable: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := d.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()

		rec := httptest.NewRecorder()
		d.srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			return
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("POST %s %q: HTTP %d with no error envelope: %q", path, body, rec.Code, rec.Body)
		}
		code := errcode.Code(e.Code)
		if !registered[code] || rec.Code != httpStatus(code) || rec.Code >= http.StatusInternalServerError {
			t.Fatalf("POST %s %q: HTTP %d %s: %s", path, body, rec.Code, code, e.Message)
		}
	})
}
