package server

import (
	"net/http"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/topo"
)

// topoChainSummary is one chain of a staged topology.
type topoChainSummary struct {
	Name string `json:"name"`
	NFs  int    `json:"nfs"`
}

// topoResponse describes the staged topology. POST returns it after
// validation; GET returns the currently staged document (Staged false
// when none has been accepted yet).
type topoResponse struct {
	Staged   bool               `json:"staged"`
	Name     string             `json:"name,omitempty"`
	Chains   []topoChainSummary `json:"chains,omitempty"`
	Policies int                `json:"policies,omitempty"`
	Tenants  int                `json:"tenants,omitempty"`
}

// handleTopo validates and stages a multi-chain topology spec.
//
// POST parses the document, dry-run builds it (so unknown NF types and
// bad per-NF parameters are rejected with their topo.*/chainspec.*
// codes, not discovered at deploy time) and stages it on the daemon;
// each POST replaces the previous staged document. GET reports the
// staged topology. The daemon's own data path keeps running its single
// boot chain — staging is the control-plane half of a topology rollout;
// cmd/chainsim -topo and the library's BuildTopology consume the same
// document for execution.
func (d *Daemon) handleTopo(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		d.adminMu.Lock()
		spec := d.stagedTopo
		d.adminMu.Unlock()
		writeJSON(w, topoSummary(spec))
		return
	}
	var body []byte
	d.admin(w, r, &body, func() (any, error) {
		spec, err := topo.Parse(body)
		if err != nil {
			return nil, err
		}
		// Dry-run build: instantiates every NF so spec-level validity
		// extends to NF construction, then discards the topology.
		tp, err := topo.Build(spec, topo.BuildConfig{Options: core.BaselineOptions()})
		if err != nil {
			return nil, err
		}
		if err := tp.Close(); err != nil {
			return nil, err
		}
		d.stagedTopo = spec
		return topoSummary(spec), nil
	})
}

// topoSummary renders the staged-topology view of a spec (nil = none).
func topoSummary(spec *topo.Spec) topoResponse {
	if spec == nil {
		return topoResponse{}
	}
	resp := topoResponse{
		Staged:   true,
		Name:     spec.Name,
		Policies: len(spec.Policies),
		Tenants:  len(spec.Tenants),
	}
	for _, c := range spec.Chains {
		resp.Chains = append(resp.Chains, topoChainSummary{Name: c.Name, NFs: len(c.NFs)})
	}
	return resp
}
