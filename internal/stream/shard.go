package stream

import "flowsched/internal/switchnet"

// turns is the policy a runtime with Config.Shards = K > 1 picks
// through: K instances of the configured Shardable policy, instance k
// seeing a View scoped to the inputs ≡ k (mod K). The pending flows stay
// in the runtime's one store; a scope is only its list of active inputs,
// Runtime.activeIn[k]. Each round the scopes take turns, oldest first:
// ordered by their oldest pending release, ties to the lower index, each
// instance picks once against the output capacity the turns before it
// left. The turns run in sequence on the coordinator, so K changes the
// schedule, not the parallelism.
type turns struct {
	pols  []Policy
	views []View
	// order is the round's turn order, rel each scope's oldest pending
	// release (the sort key) and n the picks each scope's turn added.
	order []int
	rel   []int64
	n     []int
}

// newTurns builds the K = rt.nshards instances of pol, one per scope.
func newTurns(rt *Runtime, pol Shardable) *turns {
	K := rt.nshards
	t := &turns{pols: make([]Policy, K), views: make([]View, K), order: make([]int, K), rel: make([]int64, K), n: make([]int, K)}
	for k := range K {
		t.pols[k], t.views[k], t.order[k] = pol.NewShard(k), View{rt: rt, k: k}, k
	}
	return t
}

// Name implements Policy; the runtime reports Config.Policy's name.
func (t *turns) Name() string { return t.pols[0].Name() }

// Reset implements Resetter: it resets every instance that carries
// per-run state.
func (t *turns) Reset(sw switchnet.Switch) {
	for _, p := range t.pols {
		if r, ok := p.(Resetter); ok {
			r.Reset(sw)
		}
	}
}

// Pick runs the round's turns: it orders the scopes by (oldest pending
// release, index) and runs each instance that has a pending flow once.
// Each turn's picks land on Runtime.takes as one contiguous run, which
// Pick moves in behind the runs of the lower scopes, so takes stays in
// scope-then-pick order: the order OnSchedule reports and the picks
// depart in. The order is a pure function of the pending store, so
// schedules stay deterministic for a fixed K.
//
//flowsched:hotpath
func (t *turns) Pick(v *View) {
	rt := v.rt
	for k := range t.views {
		t.rel[k] = t.views[k].oldestRel()
	}
	// Insertion sort: K is small and last round's order is usually nearly
	// right.
	order := t.order
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j], order[j-1]
			if t.rel[a] > t.rel[b] || (t.rel[a] == t.rel[b] && a > b) {
				break
			}
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	clear(t.n)
	for _, k := range order {
		end := len(rt.takes)
		if len(rt.activeIn[k]) > 0 {
			t.pols[k].Pick(&t.views[k])
		}
		t.n[k] = len(rt.takes) - end
		at := 0
		for _, n := range t.n[:k] {
			at += n
		}
		if at < end && t.n[k] > 0 {
			// Rotate takes[at:] so the run just picked comes first.
			reverse(rt.takes[at:end])
			reverse(rt.takes[end:])
			reverse(rt.takes[at:])
		}
	}
}

// reverse reverses s in place.
func reverse(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// instances returns the policy instances the runtime picks through: one
// per scope under turns, the configured policy itself at K = 1. A
// checkpoint carries one scratch slice per instance, in this order.
func (rt *Runtime) instances() []Policy {
	if t, ok := rt.pol.(*turns); ok {
		return t.pols
	}
	return []Policy{rt.pol}
}
