// Package switchnet models a non-blocking switch as a capacitated bipartite
// graph, together with flow requests and round-based schedules, following
// Section 2 of Jahanjou, Rajaraman and Stalfa, "Scheduling Flows on a Switch
// to Optimize Response Times" (SPAA 2020).
//
// A switch S(m,m') has m input ports and m' output ports, each with an
// integer capacity. A flow is a directed edge from an input port to an
// output port with an integer demand and a release round. A schedule assigns
// each flow to a single round no earlier than its release, such that the
// total demand incident on any port in any round does not exceed the port's
// capacity (possibly augmented, for the resource-augmentation results).
package switchnet

import "fmt"

// Side distinguishes the two sides of the bipartite switch.
type Side int

const (
	// In denotes the input (ingress) side of the switch.
	In Side = iota
	// Out denotes the output (egress) side of the switch.
	Out
)

// String returns "in" or "out".
func (s Side) String() string {
	if s == In {
		return "in"
	}
	return "out"
}

// Switch describes the port structure of a non-blocking switch: the
// capacities of its input and output ports. The zero value is an empty
// switch with no ports.
type Switch struct {
	// InCaps[i] is the capacity of input port i.
	InCaps []int
	// OutCaps[j] is the capacity of output port j.
	OutCaps []int
}

// NewSwitch returns an m x m' switch with every port capacity set to cap.
func NewSwitch(m, mPrime, cap int) Switch {
	in := make([]int, m)
	out := make([]int, mPrime)
	for i := range in {
		in[i] = cap
	}
	for j := range out {
		out[j] = cap
	}
	return Switch{InCaps: in, OutCaps: out}
}

// UnitSwitch returns an m x m switch with unit port capacities, the
// configuration used throughout the paper's experiments (Section 5.2).
func UnitSwitch(m int) Switch { return NewSwitch(m, m, 1) }

// NumIn returns the number of input ports.
func (s Switch) NumIn() int { return len(s.InCaps) }

// NumOut returns the number of output ports.
func (s Switch) NumOut() int { return len(s.OutCaps) }

// NumPorts returns the total number of ports, inputs first.
// Ports are globally indexed 0..NumPorts()-1 with input port i at index i
// and output port j at index NumIn()+j.
func (s Switch) NumPorts() int { return len(s.InCaps) + len(s.OutCaps) }

// PortIndex returns the global index of port i on the given side.
func (s Switch) PortIndex(side Side, i int) int {
	if side == In {
		return i
	}
	return len(s.InCaps) + i
}

// Cap returns the capacity of the port with the given global index.
func (s Switch) Cap(port int) int {
	if port < len(s.InCaps) {
		return s.InCaps[port]
	}
	return s.OutCaps[port-len(s.InCaps)]
}

// Caps returns a fresh slice of all port capacities in global index order.
func (s Switch) Caps() []int {
	caps := make([]int, 0, s.NumPorts())
	caps = append(caps, s.InCaps...)
	caps = append(caps, s.OutCaps...)
	return caps
}

// Clone returns a deep copy of the switch.
func (s Switch) Clone() Switch {
	return Switch{InCaps: append([]int(nil), s.InCaps...), OutCaps: append([]int(nil), s.OutCaps...)}
}

// ValidateFlow checks one flow against the switch: ports in range,
// positive demand, non-negative release, and the standing assumption
// d_e <= kappa_e = min(cap(In), cap(Out)) from Section 2. It is the single
// per-flow admissibility rule shared by Instance.Validate, the streaming
// runtime's admission control, and the streaming trace reader.
//
// Its accept path is Admits; only a rejection reaches flowError, which
// names the first clause the flow breaks.
func (s Switch) ValidateFlow(e Flow) error {
	if s.Admits(&e) {
		return nil
	}
	return s.flowError(&e)
}

// Admits reports whether ValidateFlow accepts e. It is the rule as one
// conjunction, small enough to inline, so a caller admitting a flow per
// call — the streaming runtime — neither calls out nor copies the Switch
// or the Flow, and calls ValidateFlow only for the error of a flow it
// refuses.
func (s *Switch) Admits(e *Flow) bool {
	return uint(e.In) < uint(len(s.InCaps)) && uint(e.Out) < uint(len(s.OutCaps)) &&
		e.Demand > 0 && e.Release >= 0 && e.Demand <= s.InCaps[e.In] && e.Demand <= s.OutCaps[e.Out]
}

// flowError is ValidateFlow's rejection: the error for the first clause
// of the rule that e breaks.
func (s *Switch) flowError(e *Flow) error {
	if e.In < 0 || e.In >= s.NumIn() {
		return fmt.Errorf("input port %d out of range [0,%d)", e.In, s.NumIn())
	}
	if e.Out < 0 || e.Out >= s.NumOut() {
		return fmt.Errorf("output port %d out of range [0,%d)", e.Out, s.NumOut())
	}
	if e.Demand <= 0 {
		return fmt.Errorf("demand %d is not positive", e.Demand)
	}
	if e.Release < 0 {
		return fmt.Errorf("release %d is negative", e.Release)
	}
	kappa := min(s.InCaps[e.In], s.OutCaps[e.Out])
	return fmt.Errorf("demand %d exceeds kappa=%d (min port capacity)", e.Demand, kappa)
}

// Flow is a single flow request: an edge from input port In to output port
// Out with integer demand Demand, released at round Release (it may be
// scheduled in any round t >= Release).
type Flow struct {
	// In is the input-port index in [0, m).
	In int `json:"in"`
	// Out is the output-port index in [0, m').
	Out int `json:"out"`
	// Demand is the flow size d_e >= 1. It must satisfy
	// Demand <= min(cap(In), cap(Out)) so the flow fits in one round.
	Demand int `json:"demand"`
	// Release is the earliest round r_e >= 0 in which the flow may run.
	Release int `json:"release"`
}

// Instance couples a switch with a set of flow requests. Flows are
// identified by their index in Flows.
type Instance struct {
	Switch Switch `json:"switch"`
	Flows  []Flow `json:"flows"`
}

// N returns the number of flows.
func (in *Instance) N() int { return len(in.Flows) }

// Kappa returns kappa_e = min(cap(e.In), cap(e.Out)) for flow index f.
func (in *Instance) Kappa(f int) int {
	e := in.Flows[f]
	ci := in.Switch.InCaps[e.In]
	co := in.Switch.OutCaps[e.Out]
	if ci < co {
		return ci
	}
	return co
}

// MaxDemand returns d_max = max_e d_e, or 0 for an empty instance.
func (in *Instance) MaxDemand() int {
	d := 0
	for _, e := range in.Flows {
		if e.Demand > d {
			d = e.Demand
		}
	}
	return d
}

// MaxRelease returns the latest release round, or 0 for an empty instance.
func (in *Instance) MaxRelease() int {
	r := 0
	for _, e := range in.Flows {
		if e.Release > r {
			r = e.Release
		}
	}
	return r
}

// TotalDemand returns the sum of all flow demands.
func (in *Instance) TotalDemand() int {
	t := 0
	for _, e := range in.Flows {
		t += e.Demand
	}
	return t
}

// PortLoads returns, for every global port index, the total demand of flows
// incident on the port.
func (in *Instance) PortLoads() []int {
	loads := make([]int, in.Switch.NumPorts())
	in.addPortLoads(loads)
	return loads
}

// addPortLoads adds each flow's demand to loads at both of its ports.
func (in *Instance) addPortLoads(loads []int) {
	for _, e := range in.Flows {
		loads[in.Switch.PortIndex(In, e.In)] += e.Demand
		loads[in.Switch.PortIndex(Out, e.Out)] += e.Demand
	}
}

// CongestionHorizon returns a round count within which the paper's
// time-indexed LPs — (1)-(4) and the interval LP (5)-(8) — are feasible:
// max release + h + d_max + 1, where h is the largest ceil(load_p/c_p)
// over ports. Proof: give every flow d_e/h in each of the h rounds
// [maxRel, maxRel+h). Each flow is released by maxRel and receives d_e in
// total, which is (2) and (6); in each of those rounds port p carries
// load_p/h <= c_p, which is (3), and summed over any four of them (7). The
// d_max + 1 on top is slack the proof does not use. In internal/core it is
// the fallback horizon of both LPs and the certificate's bound: each is
// solved over the rounds first fit uses, and once more at this horizon only
// when the optimum's duals do not rule out every round up to it; an
// infeasible LP here is reported as an internal error.
func (in *Instance) CongestionHorizon() int {
	// The loads of a switch of up to 64 ports sit on the stack: core calls
	// this on every LP solve, and a warmed call there allocates nothing else.
	var small [64]int
	loads := small[:0]
	if n := in.Switch.NumPorts(); n <= len(small) {
		loads = small[:n]
	} else {
		loads = make([]int, n)
	}
	in.addPortLoads(loads)
	h := 0
	for p, load := range loads {
		c := in.Switch.Cap(p)
		if c <= 0 {
			continue
		}
		rounds := (load + c - 1) / c
		if rounds > h {
			h = rounds
		}
	}
	return in.MaxRelease() + h + in.MaxDemand() + 1
}

// Validate checks structural well-formedness: port indices in range,
// positive capacities and demands, non-negative releases, and the standing
// assumption d_e <= kappa_e from Section 2.
func (in *Instance) Validate() error {
	for i, c := range in.Switch.InCaps {
		if c <= 0 {
			return fmt.Errorf("input port %d: capacity %d is not positive", i, c)
		}
	}
	for j, c := range in.Switch.OutCaps {
		if c <= 0 {
			return fmt.Errorf("output port %d: capacity %d is not positive", j, c)
		}
	}
	for f, e := range in.Flows {
		if err := in.Switch.ValidateFlow(e); err != nil {
			return fmt.Errorf("flow %d: %w", f, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	return &Instance{Switch: in.Switch.Clone(), Flows: append([]Flow(nil), in.Flows...)}
}

// UnitDemands reports whether every flow has demand exactly 1, the setting
// of Theorem 1 and of the paper's experiments.
func (in *Instance) UnitDemands() bool {
	for _, e := range in.Flows {
		if e.Demand != 1 {
			return false
		}
	}
	return true
}
