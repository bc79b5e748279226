package mat

// LocalRule is one NF's recorded per-flow behaviour — its Local MAT
// entry: the ordered header actions and the ordered state-function queue
// ("We use a queue data structure to maintain the sequence", paper
// §IV-B). The paper keeps one table of them per NF; here a flow's
// entries for the whole chain are the spans of its one recording, which
// the rule built from it holds (GlobalRule.Spans).
type LocalRule struct {
	// Actions are the header actions in recording order.
	Actions []HeaderAction
	// Funcs index the NF's declared state functions (its sfunc.Site's)
	// in recording order.
	Funcs []uint8
}

// Clone deep-copies the rule into exactly sized storage, so an event
// update can edit a copy of a rule's span and an append to the copy
// reallocates rather than growing into memory it shares.
func (r *LocalRule) Clone() *LocalRule {
	if r == nil {
		return nil
	}
	out := &LocalRule{
		Actions: make([]HeaderAction, len(r.Actions)),
		Funcs:   make([]uint8, len(r.Funcs)),
	}
	copy(out.Actions, r.Actions)
	copy(out.Funcs, r.Funcs)
	return out
}
