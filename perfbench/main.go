// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded, closed-loop workload for a fixed time from
// a single process, checks every output against the paper's conditions
// with its own checker, and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload serve_tcp --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// replays the workload's operations through each layer with spans around
// every call and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Set-up is measured at least minSetups times and until setupBudget has
// passed, at most maxSetups times; setup_s is the median. A serving set-up
// takes about a millisecond and is easily delayed by a wakeup, so it is
// repeated many times; a campaign's set-up takes tens of milliseconds.
const (
	minSetups   = 21
	maxSetups   = 101
	setupBudget = 500 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "serve_tcp, serve_deep, chaos_sync or chaos_async")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of the end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve_tcp|serve_deep|chaos_sync|chaos_async, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	in := w.inputs(*seed)
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*name, w, in, *seed, d)
	} else {
		res, err = measuredRun(*name, w, in, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = checker.n.Load() == 0
	for _, v := range checker.first {
		fmt.Println("violation:", v)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setUp builds the system and answers the first op of every shape,
// repeatedly, keeping the last system; it returns the median set-up time.
func setUp(w workload, in inputs, tr *tracer) (system, float64, error) {
	var times []float64
	var sys system
	begin := time.Now()
	for k := 0; k < maxSetups && (k < minSetups || time.Since(begin) < setupBudget); k++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if sys, err = w.start(in, tr); err != nil {
			return nil, 0, err
		}
		for _, i := range in.firsts {
			if err := sys.do(0, i); err != nil {
				sys.close()
				return nil, 0, fmt.Errorf("set-up op %d: %w", i, err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	return sys, times[len(times)/2], nil
}

// warm runs one whole cycle untimed, so every pool, cache and shard has
// seen every shape before timing starts.
func warm(w workload, sys system) error {
	r := runLoop(w.clients, w.cycle, 0, w.cycle, sys.do)
	if r.failed > 0 {
		return fmt.Errorf("%d ops failed while warming", r.failed)
	}
	return nil
}

// measuredRun is the untraced run that gives every end-to-end metric.
func measuredRun(name string, w workload, in inputs, d time.Duration) (*result, error) {
	sys, setup, err := setUp(w, in, nil)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if err := warm(w, sys); err != nil {
		return nil, err
	}
	tcp, _ := sys.(*tcpSystem)
	var sock0 int64
	if tcp != nil {
		sock0 = tcp.socketBytes()
	}
	r := runLoop(w.clients, w.cycle, d, capFor(w, sys, d), sys.do)
	if r.ops == 0 {
		return nil, errors.New("no operation completed")
	}
	ops := float64(r.ops)

	wallS := r.wall.Seconds()
	cpuPerOp, p50, quietN := r.quiet()
	meanLat := mean(r.lat)
	fmt.Printf("%s: %d ops in %.2fs (%.0f ops/s, %d clients), all ops: latency p50=%.1fus mean=%.1fus %s, %s\n",
		name, r.ops, wallS, ops/wallS, w.clients, quantile(r.lat, 0.5), meanLat, tail(r.lat), r.noise)
	fmt.Printf("%s: quietest %d of %d windows of %v: cpu %.2fus/op, latency p50 %.2fus\n", name, quietN, len(r.windows), window, cpuPerOp, p50)
	// Little's law: in a closed loop of c clients, c = throughput × mean
	// latency. A loop whose clients stalled outside the measured call
	// breaks it, and its figures would not describe the program.
	if little := float64(w.clients) * wallS / ops * 1e6 / meanLat; little < 0.85 || little > 1.15 {
		return nil, fmt.Errorf("closed loop broke: clients/throughput is %.3f of the mean latency", little)
	}
	r.lat, r.windows = nil, nil

	msgs, bytes, err := sys.counts()
	if err != nil {
		return nil, err
	}
	if tcp != nil {
		bytes = float64(tcp.socketBytes()-sock0) / ops
	}
	heap := liveHeap()
	return &result{
		Attempted: r.ops,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"latency_p50_us":     {p50, "us"},
			"cpu_us_per_op":      {cpuPerOp, "us"},
			"alloc_bytes_per_op": {float64(r.allocBytes) / ops, "B"},
			"setup_s":            {setup, "s"},
			"heap_live_bytes":    {float64(heap), "B"},
			"wire_bytes_per_op":  {bytes, "B"},
			"messages_per_op":    {msgs, "count"},
		},
	}, nil
}

// capFor estimates how many ops a run of length d completes, from one
// timed cycle, with a margin, so latency recording never grows a buffer.
func capFor(w workload, sys system, d time.Duration) int {
	t0 := time.Now()
	runLoop(w.clients, w.cycle, 0, w.cycle, sys.do)
	perCycle := time.Since(t0)
	return int(float64(w.cycle)*d.Seconds()/perCycle.Seconds()*2) + w.cycle
}

// overheadRounds is how many untraced and traced phases the traced run
// alternates.
const overheadRounds = 4

// tracedRun gives the per-layer metrics: half the time untraced and half
// traced on the workload's own loop (their latency difference is the
// tracing overhead), then the layer replay of one cycle.
func tracedRun(name string, w workload, in inputs, seed int64, d time.Duration) (*result, error) {
	tr := newTracer()
	sys, _, err := setUp(w, in, tr)
	if err != nil {
		return nil, err
	}
	if err := warm(w, sys); err != nil {
		sys.close()
		return nil, err
	}
	// The untraced half runs on a second system with no tracer.
	plain, _, err := setUp(w, in, nil)
	if err != nil {
		sys.close()
		return nil, err
	}
	if err := warm(w, plain); err != nil {
		sys.close()
		plain.close()
		return nil, err
	}
	// Untraced and traced halves alternate, so drift in the host's speed
	// falls on both alike and their latency difference is the tracing cost.
	var off, on loopResult
	var gcs uint32
	var ms runtime.MemStats
	phase := d / (2 * overheadRounds)
	capOff, capOn := capFor(w, plain, phase), capFor(w, sys, phase)
	tr.spans = tr.spans[:0] // the loop's spans start here
	for k := 0; k < overheadRounds; k++ {
		runtime.ReadMemStats(&ms)
		gc0 := ms.NumGC
		o := runLoop(w.clients, w.cycle, phase, capOff, plain.do)
		runtime.ReadMemStats(&ms)
		gcs += ms.NumGC - gc0
		off.merge(o)
		on.merge(runLoop(w.clients, w.cycle, phase, capOn, sys.do))
	}
	loopSpans := len(tr.spans)
	if err := plain.close(); err != nil {
		sys.close()
		return nil, err
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	p50Off, p50On := quantile(off.lat, 0.5), quantile(on.lat, 0.5)
	fmt.Printf("%s traced: p50 untraced %.1fus (n=%d), traced %.1fus (n=%d), %s\n", name, p50Off, len(off.lat), p50On, len(on.lat), on.noise)

	layers, err := layerSuite(replayed(in), seed, tr)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("%s traced: %d spans written to %s\n", name, len(tr.spans), path)

	layers["runtime.gc_cycles_per_kop"] = float64(gcs) / float64(off.ops) * 1e3
	layers["trace.span_ns"] = spanCost(tr)
	layers["trace.overhead_us"] = p50On - p50Off
	layers["trace.loop_spans_per_op"] = float64(loopSpans) / float64(on.ops)
	res := &result{Attempted: off.ops + on.ops, Failed: off.failed + on.failed, Metrics: map[string]metric{}}
	for k, v := range layers {
		res.Metrics[k] = metric{v, layerUnits[k]}
	}
	return res, nil
}

// replayOps bounds how many ops of the cycle the traced run replays
// through the layers; the chaos cycles are long so that their mix averages
// out, which the layer replay does not need.
const replayOps = 512

func replayed(in inputs) inputs {
	in.reqs, in.scenarios = head(in.reqs, replayOps), head(in.scenarios, replayOps)
	return in
}

func head[T any](xs []T, n int) []T { return xs[:min(n, len(xs))] }

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"wire.encode_ns": "ns", "wire.decode_ns": "ns",
	"wire.server_us": "us", "wire.transport_us": "us",
	"wire.writes_per_op": "count", "wire.reads_per_op": "count",
	"service.do_us": "us", "service.self_us": "us",
	"service.fastpath_hit_frac": "frac", "service.spec_checked_per_op": "count",
	"round.drive_us": "us", "round.self_us": "us",
	"round.messages_per_instance": "count", "round.bytes_per_instance": "B",
	"round.goroutine_driver_us": "us",
	"relay.step_us":             "us", "relay.decide_us": "us",
	"eig.set_ns": "ns", "eig.resolve_us": "us", "eig.sets_per_instance": "count",
	"vote.calls_per_instance": "count", "vote.vote_ns": "ns",
	"spec.check_us":     "us",
	"chaos.generate_us": "us", "chaos.run_us": "us", "chaos.injections_per_op": "count",
	"acast.on_deliver_ns": "ns", "acast.deliveries_per_op": "count",
	"acast.echo_per_op": "count", "acast.ready_per_op": "count", "acast.cert_per_op": "count",
	"round.async_self_us": "us", "round.policy_next_ns": "ns",
	"runtime.gc_cycles_per_kop": "count",
	"trace.overhead_us":         "us", "trace.loop_spans_per_op": "count", "trace.span_ns": "ns",
}
