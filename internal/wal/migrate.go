package wal

import (
	"encoding/binary"

	"github.com/fastpathnfv/speedybox/internal/errcode"
)

// MigrationRecord is the wire form of one flow in transit between
// cluster instances: the flow-table entry with its NFs' per-flow state,
// plus its live consolidated rule, encoded as checkpoints encode them.
// The new owner builds the rule again from its recording, guarded by the
// events its guards name, over the state that traveled, so an event
// firing there updates it in place. The
// degradation-ladder reset is implicit: ladder
// deadlines are ticks of the old owner's logical clock, so the record
// simply omits them.
type MigrationRecord struct {
	Flow FlowEntry
	// Rule is the consolidated rule, nil when the flow had no live one
	// (a stale or old-epoch rule does not travel): it re-records on the
	// new owner.
	Rule *RuleImage
}

// Migration wire format: sealed (seal) with its own magic and format,
// the body with the checkpoint primitive encoding.
const (
	migrationMagic = 0x53424d52 // "SBMR"
	// migrationFormat 2: flow entries carry NF state; 3: and no packet or
	// byte counters or last-seen tick; 4: rule images carry their
	// state-function and guard references; 5: a rule image is the rule's
	// recording (imageFormat).
	migrationFormat = imageFormat
)

// ErrBadMigration reports a migration blob that failed structural or
// checksum validation. A torn migration record must never be partially
// adopted — the transfer fails whole and the flow stays on its old
// owner.
var ErrBadMigration = errcode.Sentinel("wal.migration_corrupt", "wal: corrupt or truncated migration record")

// EncodeMigration serializes a batch of migration records (one
// rebalance's transfer to a single destination).
func EncodeMigration(recs []MigrationRecord) []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint32(body, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		body = appendFlowEntry(body, &r.Flow)
		if r.Rule != nil {
			body = append(body, 1)
			body = appendRuleImage(body, r.Rule)
		} else {
			body = append(body, 0)
		}
	}
	return seal(migrationMagic, migrationFormat, body)
}

// DecodeMigration parses an encoded migration batch. Validation is
// all-or-nothing: any structural damage rejects the whole blob.
func DecodeMigration(data []byte) ([]MigrationRecord, error) {
	body, ok := unseal(data, migrationMagic, migrationFormat)
	if !ok {
		return nil, ErrBadMigration
	}
	rd := &byteReader{b: body, ok: true}
	n := int(rd.u32())
	var recs []MigrationRecord
	for i := 0; i < n && rd.ok; i++ {
		r := MigrationRecord{Flow: rd.flowEntry()}
		if rd.flag() {
			im, rest, ok := decodeRuleImage(rd.b)
			if !ok {
				return nil, ErrBadMigration
			}
			rd.b = rest
			r.Rule = im
		}
		recs = append(recs, r)
	}
	if !rd.ok || len(rd.b) != 0 {
		return nil, ErrBadMigration
	}
	return recs, nil
}
