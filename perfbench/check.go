package main

import (
	"fmt"
	"strings"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/service"
	"degradable/internal/types"
)

// The checks below restate the paper's conditions from scratch instead of
// calling internal/spec, so a fault in the program's own judge cannot make
// a wrong answer pass here.

// instance is one m/u-degradable agreement instance as the checker sees it.
type instance struct {
	n, m, u int
	sender  types.NodeID
	value   types.Value
	faulty  types.NodeSet
}

func requestInstance(req service.Request) instance {
	in := instance{n: req.N, m: req.M, u: req.U, sender: req.Sender, value: req.Value}
	for _, f := range req.Faults {
		in.faulty = in.faulty.Add(f.Node)
	}
	return in
}

// condition names the paper condition that applies to the instance.
func (in instance) condition() string {
	f, senderFaulty := in.faulty.Len(), in.faulty.Contains(in.sender)
	switch {
	case f <= in.m && !senderFaulty:
		return "D.1"
	case f <= in.m:
		return "D.2"
	case f <= in.u && !senderFaulty:
		return "D.3"
	case f <= in.u:
		return "D.4"
	}
	return "none"
}

// checkDecisions checks dec (indexed by node) against the applicable
// condition and the §2 floor: for f ≤ u, at least m+1 fault-free nodes
// share one value, the fault-free sender counting for its own input.
func checkDecisions(in instance, dec []types.Value) error {
	if len(dec) != in.n {
		return fmt.Errorf("%d decisions for n=%d", len(dec), in.n)
	}
	classes := map[types.Value]int{}
	for i, d := range dec {
		id := types.NodeID(i)
		if id != in.sender && !in.faulty.Contains(id) {
			classes[d]++
		}
	}
	cond := in.condition()
	switch cond {
	case "none":
		return nil
	case "D.1":
		if len(classes) > 1 || (len(classes) == 1 && classes[in.value] == 0) {
			return fmt.Errorf("D.1: fault-free receivers decided %v, want all %d", classes, in.value)
		}
	case "D.2":
		if len(classes) > 1 {
			return fmt.Errorf("D.2: fault-free receivers split %v", classes)
		}
	case "D.3":
		for v := range classes {
			if v != in.value && v != types.Default {
				return fmt.Errorf("D.3: a fault-free receiver decided %d, neither %d nor V_d", v, in.value)
			}
		}
	case "D.4":
		nonDefault := 0
		for v := range classes {
			if v != types.Default {
				nonDefault++
			}
		}
		if nonDefault > 1 {
			return fmt.Errorf("D.4: %d non-default classes %v", nonDefault, classes)
		}
	}
	best := 0
	if !in.faulty.Contains(in.sender) {
		best = classes[in.value] + 1
	}
	for _, size := range classes {
		best = max(best, size)
	}
	if best < in.m+1 {
		return fmt.Errorf("%s: largest fault-free class has %d nodes, the floor is m+1=%d", cond, best, in.m+1)
	}
	return nil
}

// exactDecisions returns the whole decision vector a request must produce
// when it is forced: no fault at all, or a faulty sender whose round-1
// sends are unanimous (its own slot reads V_d, as faulty nodes report).
// ok is false for every other request.
func exactDecisions(req service.Request) (dec []types.Value, ok bool) {
	dec = make([]types.Value, req.N)
	switch {
	case len(req.Faults) == 0:
		for i := range dec {
			dec[i] = req.Value
		}
		return dec, true
	case len(req.Faults) == 1 && req.Faults[0].Node == req.Sender:
		var w types.Value
		switch f := req.Faults[0]; f.Kind {
		case adversary.KindLie:
			w = f.Value
		case adversary.KindSilent:
			w = types.Default
		case adversary.KindCrash: // crashes after its round-1 sends
			w = req.Value
		default:
			return nil, false
		}
		for i := range dec {
			dec[i] = w
		}
		dec[req.Sender] = types.Default
		return dec, true
	}
	return nil, false
}

// checkResponse checks one served response: the named condition, the
// decisions against it and the floor, the exact vector where one is forced,
// and the service's own sampled verdict.
func checkResponse(req service.Request, resp service.Response) error {
	in := requestInstance(req)
	if resp.Condition != in.condition() {
		return fmt.Errorf("condition %q, want %q", resp.Condition, in.condition())
	}
	if err := checkDecisions(in, resp.Decisions); err != nil {
		return err
	}
	if want, ok := exactDecisions(req); ok {
		for i, d := range resp.Decisions {
			if d != want[i] {
				return fmt.Errorf("decisions %v, want exactly %v", resp.Decisions, want)
			}
		}
	}
	if resp.Checked && !resp.OK {
		return fmt.Errorf("the service's sampled check failed: %s", resp.Reason)
	}
	return nil
}

// relayMessages is the closed-form number of sends of a fault-free depth-d
// EIG relay among n nodes: the sender's n−1 round-1 sends, then in round r
// every receiver relays each of the P(n−2, r−2) paths that do not hold it
// to all n−1 other nodes.
func relayMessages(n, depth int) int {
	total := n - 1
	for r := 2; r <= depth; r++ {
		paths := 1
		for k := 0; k < r-2; k++ {
			paths *= n - 2 - k
		}
		total += (n - 1) * paths * (n - 1)
	}
	return total
}

// relayDepth is the number of message rounds of BYZ(m, m): m+1, or one
// echo round after the send when m = 0.
func relayDepth(m int) int {
	if m == 0 {
		return 2
	}
	return m + 1
}

// checkSyncOutcome checks one synchronous chaos scenario: it met its
// expectation, was not a violation, and, with no node armed, sent exactly
// the closed-form relay count (injectors act after sends are counted).
func checkSyncOutcome(sc chaos.Scenario, out *chaos.Outcome) error {
	if !out.ExpectationMet || out.Class == "Violated" {
		return fmt.Errorf("class %s, expectation met %v: %s", out.Class, out.ExpectationMet, out.ExpectReason)
	}
	if len(sc.Faults) == 0 && len(sc.Crashes) == 0 {
		if want := relayMessages(sc.N, relayDepth(sc.M)); out.Messages != want {
			return fmt.Errorf("n=%d m=%d sent %d messages, want %d", sc.N, sc.M, out.Messages, want)
		}
	}
	return nil
}

// checkAsyncOutcome checks one A-Cast scenario: no safety breach, and a run
// with a fault-free broadcaster under any schedule that does not starve a
// node ends with every honest node decided.
func checkAsyncOutcome(sc chaos.Scenario, out *chaos.Outcome) error {
	a := out.Async
	if a == nil {
		return fmt.Errorf("no async block in the outcome")
	}
	if !out.ExpectationMet || a.SafetyViolations != 0 {
		return fmt.Errorf("class %s, %d safety violations: %s", out.Class, a.SafetyViolations, out.ExpectReason)
	}
	if strings.HasPrefix(sc.Sched, "starve") || sc.Faulty().Contains(sc.Sender) {
		return nil
	}
	if honest := sc.N - len(sc.Faults); !strings.HasPrefix(a.Verdict, "Terminated") || a.Decided != honest {
		return fmt.Errorf("sched %q: verdict %s with %d of %d honest nodes decided", sc.Sched, a.Verdict, a.Decided, honest)
	}
	return nil
}
