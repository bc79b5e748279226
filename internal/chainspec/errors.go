package chainspec

import "github.com/fastpathnfv/speedybox/internal/errcode"

// Typed sentinels for every API-reachable chainspec failure. The
// daemon's admin API parses specs and plans straight from request
// bodies, so each rejection must resolve to a registered errcode code
// (errcode.CodeOf) rather than an ad-hoc fmt.Errorf string; errors.Is
// identity matching works as with any sentinel. Plan-validation
// failures reuse core's plan sentinels (core.plan_*) — these cover the
// decode/instantiate layer in front of them.
var (
	// ErrSpecInvalid reports a structurally malformed spec or plan
	// document (bad JSON, unknown fields).
	ErrSpecInvalid = errcode.Sentinel("chainspec.spec_invalid", "chainspec: invalid spec document")
	// ErrEmptyChain reports a spec with no NFs.
	ErrEmptyChain = errcode.Sentinel("chainspec.empty_chain", "chainspec: empty chain")
	// ErrUnknownPlatform reports a spec naming a platform that is not
	// "bess" or "onvm".
	ErrUnknownPlatform = errcode.Sentinel("chainspec.unknown_platform", "chainspec: unknown platform")
	// ErrUnknownNFType reports an NF spec whose type has no builder.
	ErrUnknownNFType = errcode.Sentinel("chainspec.unknown_nf_type", "chainspec: unknown NF type")
	// ErrBadAddress reports an unparseable IPv4 address, CIDR prefix or
	// MAC address in an NF spec.
	ErrBadAddress = errcode.Sentinel("chainspec.bad_address", "chainspec: bad address")
	// ErrUnsupportedVersion reports a plan schema version this build
	// does not speak.
	ErrUnsupportedVersion = errcode.Sentinel("chainspec.unsupported_version", "chainspec: unsupported plan version")
	// ErrNFConfig reports an NF spec whose type-specific configuration
	// is invalid (missing backends, unknown class, bad rules, an
	// acl_size outside [0, 65536] or a table_size above 65537) or that
	// the NF's constructor rejects (a Maglev table size that is not a
	// prime above the backend count).
	ErrNFConfig = errcode.Sentinel("chainspec.nf_config_invalid", "chainspec: invalid NF configuration")
)
