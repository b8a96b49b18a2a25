package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"degradable/internal/acast"
	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/core"
	"degradable/internal/eig"
	"degradable/internal/obs"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/runner"
	"degradable/internal/service"
	"degradable/internal/spec"
	"degradable/internal/types"
	"degradable/internal/wire"
)

// span is one timed call into a layer, keyed by the operation it served.
// It holds no pointers, so a long trace costs the collector nothing to scan.
type span struct {
	name       uint16 // index into tracer.names
	op, parent int32  // parent is the enclosing span's index, -1 at top level
	start, end int64  // ns since the tracer started
}

// tracer keeps spans in memory; a nil tracer records nothing, which is how
// the untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	names []string
	ids   map[string]uint16
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18), ids: map[string]uint16{}}
}

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	t.spans = append(t.spans, span{name: id, op: int32(op), parent: int32(parent), start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// dur is a span's duration in ns.
func (t *tracer) dur(id int) float64 { return float64(t.spans[id].end - t.spans[id].start) }

// layerTime is the count, total and self time of one span name. Self time
// is span time minus the time its child spans cover.
type layerTime struct {
	count       int
	total, self float64 // ns
}

func (t *tracer) layers() map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, name := range t.names {
		out[name] = &layerTime{}
	}
	for i, s := range t.spans {
		lt, d := out[t.names[s.name]], t.dur(i)
		lt.count++
		lt.total += d
		lt.self += d
		if s.parent >= 0 {
			out[t.names[t.spans[s.parent].name]].self -= d
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n", t.names[s.name], s.op, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- server-side stamping ----

// stampListener wraps the server's listener so each accepted connection
// records when a request arrived and when its response left. With one
// request in flight per connection, reads and writes alternate, so the gap
// from the last read to the next write is the server's time on the request.
type stampListener struct {
	net.Listener
	tr *tracer

	serverNs, writes, reads atomic.Int64
}

func (l *stampListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stampConn{Conn: c, l: l}, nil
}

type stampConn struct {
	net.Conn
	l        *stampListener
	lastRead atomic.Int64
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead.Store(time.Since(c.l.tr.t0).Nanoseconds())
		c.l.reads.Add(1)
	}
	return n, err
}

func (c *stampConn) Write(p []byte) (int, error) {
	if r := c.lastRead.Swap(0); r > 0 {
		c.l.serverNs.Add(time.Since(c.l.tr.t0).Nanoseconds() - r)
	}
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// ---- synchronous replay ----

// probes time the calls a replay makes into the round, relay, eig and vote
// layers; a nil *probes replays untimed.
type probes struct {
	on        bool // false during the untimed first run
	tr        *tracer
	op, drive int
	votes     int
	voteIn    [][]types.Value // rule inputs, re-timed in a batch afterwards
	voteN     []int
	inboxes   [][]types.Message // per honest node, what it stored
}

// timedNode wraps a round.Node with a span per call.
type timedNode struct {
	round.Node
	p      *probes
	honest bool
}

func (n *timedNode) Step(r int, inbox []types.Message) []types.Message {
	if !n.p.on {
		return n.Node.Step(r, inbox)
	}
	n.keep(inbox)
	sp := n.p.tr.begin("relay.step", n.p.op, n.p.drive)
	out := n.Node.Step(r, inbox)
	n.p.tr.end(sp)
	return out
}

func (n *timedNode) Finish(inbox []types.Message) {
	if !n.p.on {
		n.Node.Finish(inbox)
		return
	}
	n.keep(inbox)
	sp := n.p.tr.begin("relay.decide", n.p.op, n.p.drive)
	n.Node.Finish(inbox)
	n.p.tr.end(sp)
}

func (n *timedNode) keep(inbox []types.Message) {
	if n.honest {
		i := int(n.ID())
		for _, m := range inbox {
			n.p.inboxes[i] = append(n.p.inboxes[i], types.Message{Path: append(types.Path(nil), m.Path...), Value: m.Value})
		}
	}
}

// replay runs req on the round engine under the reference schedule, with
// the honest nodes (the degradable rule, fast resolve on) and Byzantine
// wrappers the service pools, and returns the result and how long the
// engine's Drive took. Like the service's pool it runs the instance twice on
// the same nodes and engine and reports the second run, so lazy allocation
// on a fresh engine is not counted. With probes the second run times every
// node call and records each rule call and each honest node's stored
// messages.
func replay(req service.Request, p *probes) (*round.Result, time.Duration, error) {
	params := core.Params{N: req.N, M: req.M, U: req.U, Sender: req.Sender}
	if err := params.Validate(); err != nil {
		return nil, 0, err
	}
	depth := params.Depth()
	rule := params.Rule()
	if p != nil {
		inner := rule
		rule = func(nSub int, vals []types.Value) types.Value {
			if p.on {
				p.votes++
				p.voteN = append(p.voteN, nSub)
				p.voteIn = append(p.voteIn, append([]types.Value(nil), vals...))
			}
			return inner(nSub, vals)
		}
		p.inboxes = make([][]types.Message, req.N)
	}
	honest := make([]*relay.Node, req.N)
	for i := range honest {
		nd, err := relay.New(req.N, depth, req.Sender, types.NodeID(i), req.Value, rule)
		if err != nil {
			return nil, 0, err
		}
		nd.EnableFastResolve()
		honest[i] = nd
	}
	byz := map[types.NodeID]*adversary.Node{}
	for _, f := range req.Faults {
		bn, err := adversary.NewNode(req.N, depth, req.Sender, f.Node, types.Default, adversary.Honest{})
		if err != nil {
			return nil, 0, err
		}
		byz[f.Node] = bn
	}
	nodes := make([]round.Node, req.N)
	arm := func() error {
		for i, nd := range honest {
			nd.Reset(req.Value)
			nodes[i] = nd
		}
		for _, f := range req.Faults {
			s, err := f.Kind.Build(req.N, f.Value, f.Seed)
			if err != nil {
				return err
			}
			byz[f.Node].Reset(req.Value, s)
			nodes[f.Node] = byz[f.Node]
		}
		if p != nil {
			for i, nd := range nodes {
				_, faulty := byz[types.NodeID(i)]
				nodes[i] = &timedNode{Node: nd, p: p, honest: !faulty}
			}
		}
		return nil
	}
	if err := arm(); err != nil {
		return nil, 0, err
	}
	eng, err := round.NewEngine(nodes, round.Config{Rounds: depth})
	if err != nil {
		return nil, 0, err
	}
	if err := (round.Reference{}).Drive(eng); err != nil {
		return nil, 0, err
	}
	if err := arm(); err != nil {
		return nil, 0, err
	}
	if err := eng.Restart(nodes); err != nil {
		return nil, 0, err
	}
	if p != nil {
		p.on = true
		p.drive = p.tr.begin("round.drive", p.op, -1)
	}
	t0 := time.Now()
	err = round.Reference{}.Drive(eng)
	drive := time.Since(t0)
	if p != nil {
		p.tr.end(p.drive)
	}
	if err != nil {
		return nil, 0, err
	}
	res := eng.Finalize()
	if p != nil {
		// Resolve each honest receiver's final tree again, outside the
		// run, to time the EIG resolve on its own.
		for i, nd := range honest {
			if _, faulty := byz[types.NodeID(i)]; faulty || types.NodeID(i) == req.Sender {
				continue
			}
			sp := p.tr.begin("eig.resolve", p.op, -1)
			nd.Tree().Resolve(types.NodeID(i), params.Rule())
			p.tr.end(sp)
		}
	}
	return res, drive, nil
}

// ---- asynchronous replay ----

type timedAsync struct {
	round.AsyncNode
	tr *tracer
	op int
}

func (n *timedAsync) OnDeliver(m types.Message) []types.Message {
	sp := n.tr.begin("acast.on_deliver", n.op, -1)
	out := n.AsyncNode.OnDeliver(m)
	n.tr.end(sp)
	return out
}

// silentAsync is a Byzantine A-Cast node that never sends.
type silentAsync struct{ round.AsyncNode }

func (silentAsync) Start() []types.Message                  { return nil }
func (silentAsync) OnDeliver(types.Message) []types.Message { return nil }

type timedPolicy struct {
	round.Policy
	tr *tracer
	op int
}

func (p *timedPolicy) Next(tick uint64, queue []round.Pending) int {
	sp := p.tr.begin("round.policy_next", p.op, -1)
	i := p.Policy.Next(tick, queue)
	p.tr.end(sp)
	return i
}

// replayAsync runs Bracha A-Cast of the request's sender value among its N
// nodes under policy, armed nodes silent, and returns the result and the
// acast counters.
func replayAsync(req service.Request, policy round.Policy, tr *tracer, op int) (*round.AsyncResult, *obs.CounterSet, error) {
	p := acast.Params{N: req.N, F: (req.N - 1) / 3}
	counters := obs.NewCounterSet(acast.CounterNames...)
	var faulty types.NodeSet
	for _, f := range req.Faults {
		faulty = faulty.Add(f.Node)
	}
	nodes := make([]round.AsyncNode, req.N)
	var honest types.NodeSet
	for i := range nodes {
		id := types.NodeID(i)
		var nd round.AsyncNode = acast.NewNode(acast.Config{
			ID: id, Params: p, Broadcasters: types.NewNodeSet(req.Sender), Input: req.Value, Counters: counters,
		})
		if faulty.Contains(id) {
			nd = silentAsync{nd}
		} else {
			honest = honest.Add(id)
		}
		nodes[i] = &timedAsync{AsyncNode: nd, tr: tr, op: op}
	}
	sp := tr.begin("round.run_async", op, -1)
	res, err := round.RunAsync(nodes, round.AsyncConfig{Policy: &timedPolicy{Policy: policy, tr: tr, op: op}, WaitFor: honest})
	tr.end(sp)
	return res, counters, err
}

// ---- the traced run ----

// spanCost measures what recording one empty span costs, so the per-call
// figures of the cheapest layers can be read against it.
func spanCost(tr *tracer) float64 {
	const k = 10000
	t0 := time.Now()
	for i := 0; i < k; i++ {
		tr.end(tr.begin("trace.empty", -1, -1))
	}
	return float64(time.Since(t0).Nanoseconds()) / k
}

// layerSuite replays every operation of the cycle through each layer the
// benchmark can reach from its own code, with a span around each call, and
// returns the per-layer metrics. Every workload's ops reduce to agreement
// requests, so every layer is measured on every workload's inputs; the
// README maps which of them sit on a workload's own path.
func layerSuite(in inputs, seed int64, tr *tracer) (map[string]float64, error) {
	reqs := in.reqs
	for _, sc := range in.scenarios {
		reqs = append(reqs, scenarioRequest(sc))
	}
	m := map[string]float64{}
	n := float64(len(reqs))

	// service: every op once through Slot.Do on a one-shard service.
	svc := service.New(service.Config{Shards: 1})
	slot := svc.NewSlot()
	resps := make([]service.Response, len(reqs))
	var doNs, selfNs, selfCount, checked float64
	var fast uint64
	for i, r := range reqs {
		before := svc.Stats()
		sp := tr.begin("service.do", i, -1)
		resp, err := slot.Do(context.Background(), r)
		tr.end(sp)
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("service replay op %d: %w", i, err)
		}
		if err := checkResponse(r, resp); err != nil {
			checker.add("service replay", i, err)
		}
		after := svc.Stats()
		resp.Decisions = append([]types.Value(nil), resp.Decisions...)
		resps[i] = resp
		d := tr.dur(sp)
		doNs += d
		checked += float64(after.SpecChecked - before.SpecChecked)
		if after.FastHits > before.FastHits {
			fast++
			continue
		}
		// The service ran the full path: its own time is the call minus
		// the same request driven on the bare round engine.
		_, drive, err := replay(r, nil)
		if err != nil {
			svc.Close()
			return nil, err
		}
		selfNs += d - float64(drive.Nanoseconds())
		selfCount++
	}
	svc.Close()
	m["service.do_us"] = doNs / n / 1e3
	if selfCount > 0 {
		m["service.self_us"] = selfNs / selfCount / 1e3
	}
	m["service.fastpath_hit_frac"] = float64(fast) / n
	m["service.spec_checked_per_op"] = checked / n

	// wire codec: one batch per call kind, so the clock is read outside
	// the loop.
	var buf []byte
	payloads := make([][]byte, 0, 2*len(reqs))
	t0 := time.Now()
	for i, r := range reqs {
		start := len(buf)
		var err error
		if buf, err = wire.AppendRequest(buf, uint64(i), r); err != nil {
			return nil, err
		}
		mid := len(buf)
		if buf, err = wire.AppendResponse(buf, uint64(i), wire.StatusOK, resps[i], ""); err != nil {
			return nil, err
		}
		payloads = append(payloads, buf[start+4:mid], buf[mid+4:])
	}
	m["wire.encode_ns"] = float64(time.Since(t0).Nanoseconds()) / (2 * n)
	t0 = time.Now()
	for k := 0; k < len(payloads); k += 2 {
		if _, _, err := wire.DecodeRequest(payloads[k]); err != nil {
			return nil, err
		}
		if _, _, _, _, err := wire.DecodeResponse(payloads[k+1]); err != nil {
			return nil, err
		}
	}
	m["wire.decode_ns"] = float64(time.Since(t0).Nanoseconds()) / (2 * n)

	// round, relay, eig, vote, spec.
	var msgs, bytes, sets, setNs, votes, voteNs, checkNs, goNs float64
	for i, r := range reqs {
		params := core.Params{N: r.N, M: r.M, U: r.U, Sender: r.Sender}
		p := &probes{tr: tr, op: i}
		res, _, err := replay(r, p)
		if err != nil {
			return nil, err
		}
		msgs += float64(res.Messages)
		bytes += float64(res.Bytes)
		votes += float64(p.votes)

		rule := params.Rule()
		t := time.Now()
		for k, vals := range p.voteIn {
			rule(p.voteN[k], vals)
		}
		voteNs += float64(time.Since(t).Nanoseconds())

		tree, err := eig.New(r.N, params.Depth(), r.Sender)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		for _, inbox := range p.inboxes {
			tree.Reset()
			for _, msg := range inbox {
				_ = tree.Set(msg.Path, msg.Value) // a rejected path costs the same check the node made
			}
			sets += float64(len(inbox))
		}
		setNs += float64(time.Since(t).Nanoseconds())

		faulty := requestInstance(r).faulty
		sp := tr.begin("spec.check", i, -1)
		spec.Check(spec.Execution{M: r.M, U: r.U, Sender: r.Sender, SenderValue: r.Value, Faulty: faulty, Decisions: res.Decisions})
		tr.end(sp)
		checkNs += tr.dur(sp)

		strategies := map[types.NodeID]adversary.Strategy{}
		for _, f := range r.Faults {
			s, err := f.Kind.Build(r.N, f.Value, f.Seed)
			if err != nil {
				return nil, err
			}
			strategies[f.Node] = s
		}
		inst := runner.Instance{Protocol: params, SenderValue: r.Value, Strategies: strategies}
		var d [2]float64
		for k, seq := range []bool{false, true} {
			inst.Sequential = seq
			t := time.Now()
			if _, _, err := inst.Run(); err != nil {
				return nil, err
			}
			d[k] = float64(time.Since(t).Nanoseconds())
		}
		goNs += d[0] - d[1]
	}
	lt := tr.layers()
	m["round.drive_us"] = lt["round.drive"].total / n / 1e3
	m["round.self_us"] = lt["round.drive"].self / n / 1e3
	m["round.messages_per_instance"] = msgs / n
	m["round.bytes_per_instance"] = bytes / n
	m["round.goroutine_driver_us"] = goNs / n / 1e3
	m["relay.step_us"] = lt["relay.step"].total / n / 1e3
	m["relay.decide_us"] = lt["relay.decide"].total / n / 1e3
	m["eig.resolve_us"] = lt["eig.resolve"].total / n / 1e3
	m["eig.sets_per_instance"] = sets / n
	m["eig.set_ns"] = setNs / max(sets, 1)
	m["vote.calls_per_instance"] = votes / n
	m["vote.vote_ns"] = voteNs / max(votes, 1)
	m["spec.check_us"] = checkNs / n / 1e3

	// chaos: the workload's own scenarios, or for the serving workloads
	// each request run as a scenario with no injectors.
	camp := syncCampaign(seed)
	if len(in.scenarios) > 0 && in.scenarios[0].Driver == chaos.DriverAsync {
		camp = asyncCampaign(seed)
	}
	var injections float64
	for i, r := range reqs {
		sp := tr.begin("chaos.generate", i, -1)
		sc := camp.Generate(i)
		tr.end(sp)
		if len(in.scenarios) == 0 {
			sc = chaos.Scenario{N: r.N, M: r.M, U: r.U, Sender: r.Sender, SenderValue: r.Value, Seed: int64(i)}
			for _, f := range r.Faults {
				sc.Faults = append(sc.Faults, chaos.FaultSpec{Node: f.Node, Kind: f.Kind, Value: f.Value, Seed: f.Seed})
			}
		}
		sp = tr.begin("chaos.run", i, -1)
		out, err := sc.Run()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		injections += float64(out.Counters.Injections())
	}
	lt = tr.layers()
	m["chaos.generate_us"] = lt["chaos.generate"].total / n / 1e3
	m["chaos.run_us"] = lt["chaos.run"].total / n / 1e3
	m["chaos.injections_per_op"] = injections / n

	// acast under the workload's own policies, FIFO for the others.
	var deliveries, echo, ready, cert float64
	for i, r := range reqs {
		policy := round.Policy(round.FIFO{})
		if i < len(in.scenarios) && in.scenarios[i].Driver == chaos.DriverAsync {
			sc := in.scenarios[i]
			var err error
			if policy, err = round.ParsePolicy(sc.Sched, sc.Seed); err != nil {
				return nil, err
			}
		}
		res, c, err := replayAsync(r, policy, tr, i)
		if err != nil {
			return nil, err
		}
		deliveries += float64(res.Delivered)
		echo += float64(c.Get(acast.CounterEcho))
		ready += float64(c.Get(acast.CounterReady))
		cert += float64(c.Get(acast.CounterCert))
	}
	lt = tr.layers()
	m["acast.on_deliver_ns"] = lt["acast.on_deliver"].total / float64(max(lt["acast.on_deliver"].count, 1))
	m["acast.deliveries_per_op"] = deliveries / n
	m["acast.echo_per_op"] = echo / n
	m["acast.ready_per_op"] = ready / n
	m["acast.cert_per_op"] = cert / n
	m["round.async_self_us"] = (lt["round.run_async"].total - lt["acast.on_deliver"].total - lt["round.policy_next"].total) / n / 1e3
	m["round.policy_next_ns"] = lt["round.policy_next"].total / float64(max(lt["round.policy_next"].count, 1))

	// wire over a loopback socket, one request in flight.
	wm, err := wireReplay(reqs, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range wm {
		m[k] = v
	}
	return m, nil
}

// wireReplay sends every request once through a loopback server and one
// client and splits each round trip into server time and transport time.
func wireReplay(reqs []service.Request, tr *tracer) (map[string]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sl := &stampListener{Listener: ln, tr: tr}
	srv := wire.NewServer(sl, service.New(service.Config{Shards: 1}))
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // every request was answered before this; a late error changes no metric
		<-served
	}
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		shutdown()
		return nil, err
	}
	// One untimed round trip, so the accept and first reads are not counted.
	if _, err := cl.Do(context.Background(), reqs[0]); err != nil {
		cl.Close()
		shutdown()
		return nil, err
	}
	srv0, w0, r0 := sl.serverNs.Load(), sl.writes.Load(), sl.reads.Load()
	var rtt float64
	for i, r := range reqs {
		sp := tr.begin("wire.round_trip", i, -1)
		res, err := cl.Do(context.Background(), r)
		tr.end(sp)
		if err != nil || res.Status != wire.StatusOK {
			cl.Close()
			shutdown()
			return nil, fmt.Errorf("wire replay op %d: %v %v", i, err, res.Status)
		}
		rtt += tr.dur(sp)
	}
	cl.Close()
	n := float64(len(reqs))
	server := float64(sl.serverNs.Load() - srv0)
	m := map[string]float64{
		"wire.server_us":     server / n / 1e3,
		"wire.transport_us":  (rtt - server) / n / 1e3,
		"wire.writes_per_op": float64(sl.writes.Load()-w0) / n,
		"wire.reads_per_op":  float64(sl.reads.Load()-r0) / n,
	}
	shutdown()
	return m, nil
}
