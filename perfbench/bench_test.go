package main

import (
	"strings"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/service"
	"degradable/internal/types"
)

// The checker must fail a doctored response, or a run that reports
// correct=true proves nothing.
func TestCheckerRejectsDoctoredResponses(t *testing.T) {
	const v = 42
	allV := func(n int) []types.Value {
		d := make([]types.Value, n)
		for i := range d {
			d[i] = v
		}
		return d
	}
	cases := []struct {
		name   string
		req    service.Request
		resp   service.Response
		reject string
	}{
		{"fault-free exact", service.Request{N: 7, M: 1, U: 2, Value: v},
			service.Response{Condition: "D.1", Decisions: allV(7)}, ""},
		{"fault-free receiver off", service.Request{N: 7, M: 1, U: 2, Value: v},
			service.Response{Condition: "D.1", Decisions: func() []types.Value { d := allV(7); d[3] = 7; return d }()}, "D.1"},
		{"wrong condition", service.Request{N: 7, M: 1, U: 2, Value: v},
			service.Response{Condition: "D.3", Decisions: allV(7)}, "condition"},
		{"lying sender not followed", service.Request{N: 7, M: 1, U: 2, Value: v,
			Faults: []service.FaultSpec{{Node: 0, Kind: adversary.KindLie, Value: 9}}},
			service.Response{Condition: "D.2", Decisions: func() []types.Value { d := allV(7); d[0] = types.Default; return d }()}, "exactly"},
		{"D.3 third value", service.Request{N: 7, M: 1, U: 2, Value: v,
			Faults: []service.FaultSpec{{Node: 1, Kind: adversary.KindTwoFaced}, {Node: 2, Kind: adversary.KindSilent}}},
			service.Response{Condition: "D.3", Decisions: []types.Value{v, types.Default, types.Default, v, 5, v, v}}, "D.3"},
		{"D.4 two non-default classes", service.Request{N: 10, M: 2, U: 3, Value: v,
			Faults: []service.FaultSpec{{Node: 0, Kind: adversary.KindTwoFaced, Value: 9}, {Node: 1, Kind: adversary.KindSilent}, {Node: 2, Kind: adversary.KindRandom}}},
			service.Response{Condition: "D.4", Decisions: []types.Value{types.Default, types.Default, types.Default, v, v, v, 9, 9, 9, 9}}, "D.4"},
		{"sampled verdict failed", service.Request{N: 7, M: 1, U: 2, Value: v},
			service.Response{Condition: "D.1", Decisions: allV(7), Checked: true, Reason: "bad"}, "sampled"},
	}
	for _, c := range cases {
		err := checkResponse(c.req, c.resp)
		switch {
		case c.reject == "" && err != nil:
			t.Errorf("%s: rejected a correct response: %v", c.name, err)
		case c.reject != "" && (err == nil || !strings.Contains(err.Error(), c.reject)):
			t.Errorf("%s: got %v, want an error about %q", c.name, err, c.reject)
		}
	}
}

// The closed-form relay count must match what the round engine sends.
func TestRelayMessagesClosedForm(t *testing.T) {
	for _, r := range []service.Request{
		{N: 4, M: 0, U: 2, Value: 1}, {N: 5, M: 1, U: 2, Value: 1},
		{N: 7, M: 2, U: 2, Value: 1}, {N: 10, M: 2, U: 3, Value: 1},
	} {
		res, _, err := replay(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := relayMessages(r.N, relayDepth(r.M)); res.Messages != want {
			t.Errorf("n=%d m=%d: engine sent %d, closed form %d", r.N, r.M, res.Messages, want)
		}
	}
}

// runCycle runs one whole cycle of a workload and returns its counts.
func runCycle(t *testing.T, name string, seed int64) (msgs, bytes float64, socket int64) {
	t.Helper()
	w := workloads[name]
	sys, err := w.start(w.inputs(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if r := runLoop(w.clients, w.cycle, 0, w.cycle, sys.do); r.failed != 0 || r.ops != int64(w.cycle) {
		t.Fatalf("%s: %d of %d ops failed", name, r.failed, r.ops)
	}
	if tcp, ok := sys.(*tcpSystem); ok {
		socket = tcp.socketBytes()
	}
	msgs, bytes, err = sys.counts()
	if err != nil {
		t.Fatal(err)
	}
	return msgs, bytes, socket
}

// Two runs with the same seed give identical counts, end to end and per
// layer, and every output passes the checker.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"serve_tcp", "serve_deep", "chaos_sync", "chaos_async"} {
		m1, b1, s1 := runCycle(t, name, 7)
		m2, b2, s2 := runCycle(t, name, 7)
		if m1 != m2 || b1 != b2 || s1 != s2 {
			t.Errorf("%s: counts differ between runs: messages %v/%v bytes %v/%v socket %d/%d", name, m1, m2, b1, b2, s1, s2)
		}
		if m1 == 0 {
			t.Errorf("%s: no messages counted", name)
		}

		w := workloads[name]
		in := w.inputs(7)
		in.reqs, in.scenarios = head(in.reqs, 8), head(in.scenarios, 8)
		l1, err := layerSuite(in, 7, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		l2, err := layerSuite(in, 7, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		for k, u := range layerUnits {
			if _, ok := l1[k]; !ok && !strings.HasPrefix(k, "trace.") && !strings.HasPrefix(k, "runtime.") {
				t.Errorf("%s: layer metric %s missing", name, k)
			}
			// Socket reads and writes depend on how TCP segments the
			// stream; every other count is a function of the inputs.
			if (u != "count" && u != "frac" && u != "B") || strings.HasPrefix(k, "wire.") {
				continue
			}
			if l1[k] != l2[k] {
				t.Errorf("%s: %s differs between runs: %v, %v", name, k, l1[k], l2[k])
			}
		}
	}
	if n := checker.n.Load(); n != 0 {
		t.Fatalf("%d wrong outputs: %v", n, checker.first)
	}
}
