package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/round"
	"degradable/internal/service"
	"degradable/internal/types"
	"degradable/internal/wire"
)

// workload is one seeded, closed-loop traffic mix. Each run repeats a
// fixed cycle of operations generated from the seed, so every per-op count
// is an average over whole cycles and repeats exactly.
type workload struct {
	clients int
	cycle   int
	// inputs derives the cycle from the seed.
	inputs func(seed int64) inputs
	// start builds the system under test over the inputs.
	start func(in inputs, tr *tracer) (system, error)
}

// inputs is one workload's cycle: agreement requests for the serving
// workloads, chaos scenarios for the campaign workloads.
type inputs struct {
	reqs      []service.Request
	scenarios []chaos.Scenario
	campaign  chaos.Campaign // the campaign the scenarios come from
	// firsts lists the first op of every distinct shape, in order: set-up
	// ends when each of them has been answered once.
	firsts []int
}

// system is a running workload. do runs op i (an index into the cycle)
// for client c and checks its output; it returns an error only when the
// operation itself failed, and reports wrong outputs through the checker.
type system interface {
	do(c, i int) error
	// counts returns the per-op message and byte counts of one cycle,
	// after a run that used whole cycles.
	counts() (messages, bytes float64, err error)
	close() error
}

// A serving cycle takes tens of milliseconds and a chaos cycle under a
// second, which bounds how far stopping on a whole cycle overruns the
// deadline.
const (
	serveClients = 2
	tcpCycle     = 1024
	deepCycle    = 288  // a multiple of 9: every (f, sender health) pair equally often
	syncCycle    = 4096 // the campaign mix varies per seed; a long cycle averages it out
	asyncCycle   = 4096
)

var workloads = map[string]workload{
	"serve_tcp":   {clients: serveClients, cycle: tcpCycle, inputs: serveTCPInputs, start: startTCP},
	"serve_deep":  {clients: serveClients, cycle: deepCycle, inputs: serveDeepInputs, start: startDeep},
	"chaos_sync":  {clients: 1, cycle: syncCycle, inputs: chaosSyncInputs, start: startChaos},
	"chaos_async": {clients: 1, cycle: asyncCycle, inputs: chaosAsyncInputs, start: startChaos},
}

// violations collects wrong outputs; the first few are kept for the report.
type violations struct {
	n     atomic.Int64
	mu    sync.Mutex
	first []string
}

func (v *violations) add(what string, i int, err error) {
	if v.n.Add(1) <= 3 {
		v.mu.Lock()
		v.first = append(v.first, fmt.Sprintf("%s op %d: %v", what, i, err))
		v.mu.Unlock()
	}
}

var checker violations

// ---- inputs ----

// shapeFirsts indexes the first request of every (n, m, u, sender) shape.
func shapeFirsts(reqs []service.Request) []int {
	seen := map[[4]int]bool{}
	var firsts []int
	for i, r := range reqs {
		k := [4]int{r.N, r.M, r.U, int(r.Sender)}
		if !seen[k] {
			seen[k] = true
			firsts = append(firsts, i)
		}
	}
	return firsts
}

// value draws a sender input distinct from V_d.
func value(rng *rand.Rand) types.Value { return types.Value(1 + rng.Intn(1000)) }

// serveTCPInputs is the paper's running example, N=7 m=1 u=2 from sender
// 0: exactly half fault-free, a quarter with a faulty sender whose round-1
// sends are unanimous (both take the service's fast path), and a quarter
// with one or two non-sender faults, at least one of them equivocating
// (the full VOTE path). Shares and fault kinds are fixed by the position
// in a seeded permutation; the seed sets the order, the values and the
// fault placement, so seeds differ in content, not in mix.
func serveTCPInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	const n, m, u = 7, 1, 2
	unanimous := []adversary.Kind{adversary.KindLie, adversary.KindSilent, adversary.KindCrash}
	reqs := make([]service.Request, tcpCycle)
	for i, x := range rng.Perm(tcpCycle) {
		r := service.Request{N: n, M: m, U: u, Value: value(rng)}
		switch x % 4 {
		case 2:
			r.Faults = []service.FaultSpec{{Node: 0, Kind: unanimous[(x/4)%len(unanimous)], Value: value(rng)}}
		case 3:
			r.Faults = nonSenderFaults(rng, n, 1+(x/4)%u, x/8)
		}
		reqs[i] = r
	}
	return inputs{reqs: reqs, firsts: shapeFirsts(reqs)}
}

// nonSenderFaults arms f distinct non-sender nodes (sender 0). The first
// is an equivocator, two-faced or random by k's parity, and the others
// take the kinds in turn from k/2; placement and values are random.
func nonSenderFaults(rng *rand.Rand, n, f, k int) []service.FaultSpec {
	kinds := []adversary.Kind{adversary.KindSilent, adversary.KindCrash, adversary.KindLie, adversary.KindTwoFaced, adversary.KindRandom}
	equivocators := []adversary.Kind{adversary.KindTwoFaced, adversary.KindRandom}
	perm := rng.Perm(n - 1)
	faults := make([]service.FaultSpec, f)
	for j := range faults {
		kind := kinds[(k/2+j)%len(kinds)]
		if j == 0 {
			kind = equivocators[k%2]
		}
		faults[j] = service.FaultSpec{Node: types.NodeID(1 + perm[j]), Kind: kind, Value: value(rng), Seed: rng.Int63()}
	}
	return faults
}

// serveDeepInputs is N=10 m=2 u=3 from sender 0 with f ∈ {1,2,3}, each f
// on exactly a third of the requests, and an equivocating sender on exactly
// a third of those. Every request has a fault that can act after round 1
// or a sender that equivocates, so every one takes the full VOTE path, and
// f and the sender's health cover D.1–D.4. As in serve_tcp, the position
// in a seeded permutation fixes the mix.
func serveDeepInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	const n, m, u = 10, 2, 3
	reqs := make([]service.Request, deepCycle)
	for i, x := range rng.Perm(deepCycle) {
		r := service.Request{N: n, M: m, U: u, Value: value(rng)}
		f, k := 1+x%u, x/9
		if (x/u)%3 == 0 {
			lie := r.Value + 1 + types.Value(rng.Intn(100)) // never the honest value, so it equivocates
			r.Faults = append([]service.FaultSpec{{Node: 0, Kind: adversary.KindTwoFaced, Value: lie}}, nonSenderFaults(rng, n, f-1, k)...)
		} else {
			r.Faults = nonSenderFaults(rng, n, f, k)
		}
		reqs[i] = r
	}
	return inputs{reqs: reqs, firsts: shapeFirsts(reqs)}
}

func campaignInputs(c chaos.Campaign, cycle int) inputs {
	in := inputs{scenarios: make([]chaos.Scenario, cycle), campaign: c}
	seen := map[[3]int]bool{}
	for i := range in.scenarios {
		sc := c.Generate(i)
		in.scenarios[i] = sc
		if k := [3]int{sc.N, sc.M, sc.U}; !seen[k] {
			seen[k] = true
			in.firsts = append(in.firsts, i)
		}
	}
	return in
}

func syncCampaign(seed int64) chaos.Campaign {
	// Generate, unlike Run, does not default MaxInjectors, so it is set
	// here to Run's default of 3.
	return chaos.Campaign{Seed: seed, Grid: chaos.DefaultGrid(), Probs: chaos.DefaultProbs(), MaxInjectors: 3}
}

func asyncCampaign(seed int64) chaos.Campaign {
	c := syncCampaign(seed)
	c.Async = &chaos.AsyncAxis{}
	return c
}

// chaosSyncInputs is scenarios 0..cycle-1 of a default-grid campaign: the
// goroutine driver, Byzantine draws and injector stacks.
func chaosSyncInputs(seed int64) inputs {
	return campaignInputs(syncCampaign(seed), syncCycle)
}

// chaosAsyncInputs is the same campaign on the asynchronous axis: A-Cast
// under the fifo, reorder, delay, adversarial and starve policies with up
// to (n−1)/3 Byzantine nodes.
func chaosAsyncInputs(seed int64) inputs {
	return campaignInputs(asyncCampaign(seed), asyncCycle)
}

// ---- serve_tcp ----

type tcpSystem struct {
	in      inputs
	srv     *wire.Server
	served  chan error
	clients []*wire.Client
	conns   []*countConn
	tr      *tracer
}

func startTCP(in inputs, tr *tracer) (system, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &tcpSystem{in: in, srv: wire.NewServer(ln, service.New(service.Config{Shards: 2})), served: make(chan error, 1), tr: tr}
	go func() { s.served <- s.srv.Serve() }()
	for c := 0; c < serveClients; c++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		cc := &countConn{Conn: conn}
		s.conns = append(s.conns, cc)
		s.clients = append(s.clients, wire.NewClient(cc))
	}
	return s, nil
}

func (s *tcpSystem) do(c, i int) error {
	req := s.in.reqs[i%len(s.in.reqs)]
	sp := s.tr.begin("loop.wire_client_do", i, -1)
	res, err := s.clients[c].Do(context.Background(), req)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	if res.Status != wire.StatusOK {
		return fmt.Errorf("status %v: %s", res.Status, res.Errmsg)
	}
	if err := checkResponse(req, res.Resp); err != nil {
		checker.add("serve_tcp", i, err)
	}
	return nil
}

// socketBytes is the traffic on the client sockets so far.
func (s *tcpSystem) socketBytes() int64 {
	var b int64
	for _, c := range s.conns {
		b += c.read.Load() + c.written.Load()
	}
	return b
}

// counts returns the protocol messages per request; the caller reads the
// bytes from the sockets (socketBytes) around its measured phase.
func (s *tcpSystem) counts() (float64, float64, error) {
	msgs, _, err := replayCounts(s.in.reqs)
	return msgs, 0, err
}

func (s *tcpSystem) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	return err
}

// countConn counts the bytes a client socket carries.
type countConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// ---- serve_deep ----

type deepSystem struct {
	in    inputs
	svc   *service.Service
	slots []*service.Slot
	tr    *tracer
}

func startDeep(in inputs, tr *tracer) (system, error) {
	s := &deepSystem{in: in, svc: service.New(service.Config{Shards: 2}), tr: tr}
	for c := 0; c < serveClients; c++ {
		s.slots = append(s.slots, s.svc.NewSlot())
	}
	return s, nil
}

func (s *deepSystem) do(c, i int) error {
	req := s.in.reqs[i%len(s.in.reqs)]
	sp := s.tr.begin("loop.service_slot_do", i, -1)
	resp, err := s.slots[c].Do(context.Background(), req)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	if err := checkResponse(req, resp); err != nil {
		checker.add("serve_deep", i, err)
	}
	return nil
}

func (s *deepSystem) counts() (float64, float64, error) { return replayCounts(s.in.reqs) }

func (s *deepSystem) close() error { s.svc.Close(); return nil }

// replayCounts replays every request once on the round engine under the
// reference schedule and returns the mean messages and bytes sent per
// request: the protocol's cost, whether or not the service took its fast
// path.
func replayCounts(reqs []service.Request) (msgs, bytes float64, err error) {
	for _, r := range reqs {
		res, _, err := replay(r, nil)
		if err != nil {
			return 0, 0, err
		}
		msgs += float64(res.Messages)
		bytes += float64(res.Bytes)
	}
	return msgs / float64(len(reqs)), bytes / float64(len(reqs)), nil
}

// ---- chaos_sync and chaos_async ----

type chaosSystem struct {
	in        inputs
	scenarios []chaos.Scenario // the cycle, as the campaign generated it at start
	tr        *tracer
	msgs      []atomic.Int64 // Outcome.Messages per cycle slot
	async     bool
}

// startChaos has the campaign generate the cycle's scenarios, which is the
// campaign's own set-up work.
func startChaos(in inputs, tr *tracer) (system, error) {
	s := &chaosSystem{in: in, scenarios: make([]chaos.Scenario, len(in.scenarios)), tr: tr, msgs: make([]atomic.Int64, len(in.scenarios))}
	for i := range s.scenarios {
		s.scenarios[i] = in.campaign.Generate(i)
	}
	s.async = s.scenarios[0].Driver == chaos.DriverAsync
	return s, nil
}

func (s *chaosSystem) do(_, i int) error {
	k := i % len(s.scenarios)
	sc := s.scenarios[k]
	sp := s.tr.begin("loop.scenario_run", i, -1)
	out, err := sc.Run()
	s.tr.end(sp)
	if err != nil {
		return err
	}
	s.msgs[k].Store(int64(out.Messages))
	check, what := checkSyncOutcome, "chaos_sync"
	if s.async {
		check, what = checkAsyncOutcome, "chaos_async"
	}
	if err := check(sc, out); err != nil {
		checker.add(what, i, err)
	}
	return nil
}

// counts reads the messages each scenario sent. Bytes are the engine's
// wire volume per send: for A-Cast every message carries a one-element
// path; for the relay workloads a replay of the scenario's fault set gives
// the same sends (injectors act after sends are counted).
func (s *chaosSystem) counts() (float64, float64, error) {
	var msgs, bytes float64
	for k, sc := range s.scenarios {
		m := float64(s.msgs[k].Load())
		msgs += m
		if s.async {
			bytes += m * float64(round.MessageBytes(types.Message{Path: types.Path{0}}))
			continue
		}
		res, _, err := replay(scenarioRequest(sc), nil)
		if err != nil {
			return 0, 0, err
		}
		if res.Messages != int(m) {
			checker.add("chaos_sync replay", k, fmt.Errorf("replay sent %d messages, the scenario %d", res.Messages, int(m)))
		}
		bytes += float64(res.Bytes)
	}
	n := float64(len(s.scenarios))
	return msgs / n, bytes / n, nil
}

func (s *chaosSystem) close() error { return nil }

// scenarioRequest is the agreement instance inside a chaos scenario, as a
// service request.
func scenarioRequest(sc chaos.Scenario) service.Request {
	r := service.Request{N: sc.N, M: sc.M, U: sc.U, Sender: sc.Sender, Value: sc.SenderValue}
	for _, f := range sc.Faults {
		r.Faults = append(r.Faults, service.FaultSpec{Node: f.Node, Kind: f.Kind, Value: f.Value, Seed: f.Seed})
	}
	return r
}
