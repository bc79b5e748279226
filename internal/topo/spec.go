// Package topo builds multi-chain, multi-tenant topologies out of the
// single-chain primitives: N named chains (each an ordinary chainspec
// chain) share NF instances by name, a first-match policy classifier
// maps flows to chains and tenants, and a per-tenant admission policy
// (rule quotas, event caps) isolates tenants from each other's
// fast-path resource consumption. The per-chain engines run unchanged
// — a topology is pure composition, which is what lets the
// differential oracle check it against per-chain pure slow-path
// references bit for bit.
package topo

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/errcode"
)

// Sentinel errors, each carrying a registered errcode code.
var (
	// ErrSpecInvalid reports undecodable or malformed topology JSON.
	ErrSpecInvalid = errcode.Sentinel("topo.spec_invalid", "topo: invalid topology spec")
	// ErrNoChains reports a topology with no chains.
	ErrNoChains = errcode.Sentinel("topo.no_chains", "topo: topology needs at least one chain")
	// ErrDuplicateChain reports two chains sharing a name.
	ErrDuplicateChain = errcode.Sentinel("topo.duplicate_chain", "topo: duplicate chain name")
	// ErrPolicyUnknownChain reports a policy routing to an undefined chain.
	ErrPolicyUnknownChain = errcode.Sentinel("topo.policy_unknown_chain", "topo: policy names an unknown chain")
	// ErrPolicyInvalid reports a malformed policy rule.
	ErrPolicyInvalid = errcode.Sentinel("topo.policy_invalid", "topo: invalid policy rule")
	// ErrTenantInvalid reports a malformed tenant declaration.
	ErrTenantInvalid = errcode.Sentinel("topo.tenant_invalid", "topo: invalid tenant")
	// ErrSharedNFMismatch reports one instance name used with two
	// different NF types across chains.
	ErrSharedNFMismatch = errcode.Sentinel("topo.shared_nf_mismatch", "topo: shared NF name used with conflicting types")
)

// Spec is a complete topology description:
//
//	{
//	  "name": "edge",
//	  "chains": [
//	    {"name": "web", "nfs": [
//	        {"type": "monitor", "name": "shared-mon"},
//	        {"type": "ipfilter", "acl_size": 100}]},
//	    {"name": "voip", "nfs": [
//	        {"type": "monitor", "name": "shared-mon"},
//	        {"type": "ratelimiter", "quota": 1000}]}
//	  ],
//	  "policies": [
//	    {"chain": "voip", "tenant": 2, "dst_port_min": 5060, "dst_port_max": 5061, "proto": "udp"},
//	    {"chain": "web", "tenant": 1, "src_cidr": "10.1.0.0/16"}
//	  ],
//	  "tenants": [
//	    {"id": 1, "rule_quota": 1000, "event_cap": 4000},
//	    {"id": 2, "rule_quota": 200}
//	  ]
//	}
//
// NFs carrying an explicit "name" are shared: every chain listing that
// name gets the same instance (its state — monitor counters, NAT
// mappings — is global across the chains). Unnamed NFs are private to
// their chain.
type Spec struct {
	// Name labels the topology.
	Name string `json:"name"`
	// Chains are the service chains; the first is the default chain
	// for flows no policy matches.
	Chains []ChainSpec `json:"chains"`
	// Policies map flows to chains and tenants, first match wins.
	Policies []PolicySpec `json:"policies,omitempty"`
	// Tenants declares per-tenant quotas. A policy may tag a tenant
	// absent from this list; such tenants are tracked but unlimited.
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// ChainSpec is one named chain of the topology.
type ChainSpec struct {
	// Name labels the chain; it becomes the ChainLabel on the chain
	// engine's metrics and the routing target of policies.
	Name string `json:"name"`
	// NFs is the chain in order, in chainspec notation.
	NFs []chainspec.NFSpec `json:"nfs"`
}

// nfName is the instance name of the chain's i-th NF: its own name,
// which chains share, or a private name qualified by the chain so
// identical anonymous NFs in different chains never collide.
func (c ChainSpec) nfName(i int) string {
	if n := c.NFs[i].Name; n != "" {
		return n
	}
	return fmt.Sprintf("%s.%s%d", c.Name, c.NFs[i].Type, i+1)
}

// PolicySpec is one classification rule. Every present field must
// match; absent fields match anything. Rules are evaluated in order
// and the first match assigns the flow's chain and tenant.
type PolicySpec struct {
	// Chain is the target chain name (required).
	Chain string `json:"chain"`
	// Tenant tags matching flows (0 = untagged, exempt from quotas).
	Tenant int32 `json:"tenant,omitempty"`
	// SrcCIDR matches the source address against an IPv4 prefix.
	SrcCIDR string `json:"src_cidr,omitempty"`
	// DstPortMin/DstPortMax match the destination port against an
	// inclusive range; Max 0 with Min set matches exactly Min.
	DstPortMin uint16 `json:"dst_port_min,omitempty"`
	DstPortMax uint16 `json:"dst_port_max,omitempty"`
	// Proto matches the transport protocol: "tcp", "udp" or "" (any).
	Proto string `json:"proto,omitempty"`
}

// TenantSpec declares one tenant's isolation quotas. Zero quotas mean
// unlimited (the tenant is tracked for telemetry but never denied).
type TenantSpec struct {
	// ID is the tenant tag policies assign; must be positive.
	ID int32 `json:"id"`
	// RuleQuota caps the tenant's concurrently installed Global MAT
	// rules across all chains.
	RuleQuota uint64 `json:"rule_quota,omitempty"`
	// EventCap caps the tenant's concurrently held Event Table
	// registrations across all chains.
	EventCap uint64 `json:"event_cap,omitempty"`
}

// Parse decodes and validates a JSON topology spec.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpecInvalid, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's internal consistency without building it.
func (s *Spec) Validate() error {
	if len(s.Chains) == 0 {
		return ErrNoChains
	}
	chains := make(map[string]bool, len(s.Chains))
	for i, c := range s.Chains {
		if c.Name == "" {
			return fmt.Errorf("%w: chain %d has no name", ErrSpecInvalid, i)
		}
		if chains[c.Name] {
			return fmt.Errorf("%w %q", ErrDuplicateChain, c.Name)
		}
		chains[c.Name] = true
		if len(c.NFs) == 0 {
			return fmt.Errorf("%w: chain %q has no NFs", ErrSpecInvalid, c.Name)
		}
		names := make(map[string]bool, len(c.NFs))
		for ni := range c.NFs {
			name := c.nfName(ni)
			if names[name] {
				return fmt.Errorf("%w: chain %q names NF %q twice", ErrSpecInvalid, c.Name, name)
			}
			names[name] = true
		}
	}
	for i, p := range s.Policies {
		if !chains[p.Chain] {
			return fmt.Errorf("%w: policy %d targets %q", ErrPolicyUnknownChain, i, p.Chain)
		}
		if p.Tenant < 0 {
			return fmt.Errorf("%w: policy %d has negative tenant", ErrPolicyInvalid, i)
		}
		if p.SrcCIDR != "" {
			if _, _, err := chainspec.ParseCIDR(p.SrcCIDR); err != nil {
				return fmt.Errorf("%w: policy %d: %w", ErrPolicyInvalid, i, err)
			}
		}
		if p.DstPortMax != 0 && p.DstPortMax < p.DstPortMin {
			return fmt.Errorf("%w: policy %d has inverted port range", ErrPolicyInvalid, i)
		}
		switch p.Proto {
		case "", "tcp", "udp":
		default:
			return fmt.Errorf("%w: policy %d has unknown proto %q", ErrPolicyInvalid, i, p.Proto)
		}
	}
	tenants := make(map[int32]bool, len(s.Tenants))
	for i, t := range s.Tenants {
		if t.ID <= 0 {
			return fmt.Errorf("%w: tenant %d has non-positive id", ErrTenantInvalid, i)
		}
		if tenants[t.ID] {
			return fmt.Errorf("%w: duplicate tenant id %d", ErrTenantInvalid, t.ID)
		}
		tenants[t.ID] = true
	}
	// Shared-NF type consistency: one name, one type, everywhere.
	types := make(map[string]string)
	for _, c := range s.Chains {
		for _, n := range c.NFs {
			if n.Name == "" {
				continue
			}
			if prev, ok := types[n.Name]; ok && prev != n.Type {
				return fmt.Errorf("%w: %q is %q and %q", ErrSharedNFMismatch, n.Name, prev, n.Type)
			}
			types[n.Name] = n.Type
		}
	}
	return nil
}
