package server

import (
	"encoding/json"
	"net/http"
	"strings"

	"github.com/fastpathnfv/speedybox/internal/errcode"
)

// Typed sentinels for the daemon's own admin-API failures. Everything
// the API can reject resolves to a registered errcode code, so clients
// assert on the machine-readable code instead of matching message
// strings.
var (
	// ErrBadState reports an operation invalid in the daemon's current
	// lifecycle state (e.g. restore while serving).
	ErrBadState = errcode.Sentinel("server.bad_state", "server: operation invalid in current state")
	// ErrBadRequest reports a structurally invalid request body.
	ErrBadRequest = errcode.Sentinel("server.bad_request", "server: bad request")
	// ErrMethodNotAllowed reports a request verb the endpoint does not
	// accept.
	ErrMethodNotAllowed = errcode.Sentinel("server.method_not_allowed", "server: method not allowed")
	// ErrNotFound reports an unknown API path.
	ErrNotFound = errcode.Sentinel("server.not_found", "server: not found")
	// ErrBodyTooLarge reports a request body over the admission limit.
	ErrBodyTooLarge = errcode.Sentinel("server.body_too_large", "server: request body too large")
	// ErrCheckpointIO reports a checkpoint or WAL file that could not be
	// read or written.
	ErrCheckpointIO = errcode.Sentinel("server.checkpoint_io", "server: checkpoint file I/O failed")
	// ErrStopped reports an admin operation after shutdown began.
	ErrStopped = errcode.Sentinel("server.stopped", "server: daemon is stopped")
	// ErrNotClustered reports a cluster endpoint on a daemon running a
	// single instance.
	ErrNotClustered = errcode.Sentinel("server.not_clustered", "server: daemon is not running in cluster mode")
	// ErrClusterMode reports a single-instance-only operation
	// (checkpoint, restore, file WAL) on a clustered daemon.
	ErrClusterMode = errcode.Sentinel("server.cluster_mode", "server: operation not available in cluster mode")
)

// httpByCode pins HTTP statuses for codes whose meaning is not captured
// by the prefix heuristics below.
var httpByCode = map[errcode.Code]int{
	"server.bad_state":          http.StatusConflict,
	"server.bad_request":        http.StatusBadRequest,
	"server.method_not_allowed": http.StatusMethodNotAllowed,
	"server.not_found":          http.StatusNotFound,
	"server.body_too_large":     http.StatusRequestEntityTooLarge,
	"server.stopped":            http.StatusConflict,
	"server.not_clustered":      http.StatusConflict,
	"server.cluster_mode":       http.StatusConflict,
	"core.checkpoint_missing":   http.StatusBadRequest,
	"wal.checkpoint_corrupt":    http.StatusBadRequest,
	"onvm.chain_too_long":       http.StatusBadRequest,
	// An aborted migration is a rolled-back transaction, not a bad
	// request: the client may retry the same scale target.
	"cluster.migration_aborted": http.StatusConflict,
	"cluster.unknown_instance":  http.StatusNotFound,
}

// httpStatus maps an error code onto the response status: explicit
// entries first, then validation-family prefixes (client errors), then
// 500 for everything unrecognized.
func httpStatus(c errcode.Code) int {
	if s, ok := httpByCode[c]; ok {
		return s
	}
	cs := string(c)
	switch {
	case strings.HasPrefix(cs, "chainspec."):
		return http.StatusBadRequest
	case strings.HasPrefix(cs, "topo."):
		return http.StatusBadRequest
	case strings.HasPrefix(cs, "core.plan_"):
		return http.StatusBadRequest
	case strings.HasPrefix(cs, "cluster."):
		// Remaining cluster codes (scale_invalid, last_instance,
		// config_invalid) are client errors.
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// errorBody is the JSON error envelope every failing endpoint returns.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError renders err as the standard JSON error envelope. The code
// is resolved through the error's wrap chain (errcode.CodeOf), so a
// chainspec rejection surfaced through three fmt.Errorf layers still
// reports chainspec.spec_invalid.
func writeError(w http.ResponseWriter, err error) {
	code := errcode.CodeOf(err)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(httpStatus(code))
	_ = json.NewEncoder(w).Encode(errorBody{Code: string(code), Message: err.Error()})
}

// writeJSON renders v with status 200.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
