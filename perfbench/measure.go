package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// dispenser hands operation indices to the clients of a closed loop. Once
// the deadline has passed it lets the clients finish the cycle in progress
// and then stops them, so every run attempts whole cycles of the seeded
// sequence and every count derived from the ops repeats exactly.
type dispenser struct {
	mu       sync.Mutex
	next     int
	stop     int // -1 until the deadline passes
	cycle    int
	deadline time.Time
}

func newDispenser(cycle int, d time.Duration) *dispenser {
	return &dispenser{stop: -1, cycle: cycle, deadline: time.Now().Add(d)}
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop < 0 && !time.Now().Before(d.deadline) {
		d.stop = max((d.next+d.cycle-1)/d.cycle*d.cycle, d.cycle)
	}
	if d.stop >= 0 && d.next >= d.stop {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	ops, failed int64
	wall        time.Duration
	lat         []float64 // per-op latency, µs, in completion order per client
	windows     []windowStat
	allocBytes  uint64
	noise       hostNoise
}

// windowStat is one slice of a phase: the process CPU it used, the ops it
// completed with their latencies, and what the host took meanwhile.
type windowStat struct {
	cpu   time.Duration
	ops   int64
	noise hostNoise
	lat   []float64
}

// window is the length of one slice of a phase. On a shared host the
// hypervisor takes CPUs away in bursts (steal); slicing the phase lets the
// timing metrics come from the slices it disturbed least.
const window = 250 * time.Millisecond

// runLoop drives do from clients goroutines in a closed loop (each client
// issues its next op when the previous one returns) for d, in whole cycles.
// capHint sizes the latency buffers so recording allocates nothing.
func runLoop(clients, cycle int, d time.Duration, capHint int, do func(client, i int) error) loopResult {
	var res loopResult
	lats := make([][]float64, clients)
	recorded := make([]atomic.Int64, clients)
	for c := range lats {
		lats[c] = make([]float64, 0, capHint/clients+cycle)
	}
	var done, failed atomic.Int64
	disp := newDispenser(cycle, d)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	noise0 := readNoise()
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := disp.take()
				if !ok {
					return
				}
				t0 := time.Now()
				err := do(c, i)
				lats[c] = append(lats[c], float64(time.Since(t0).Nanoseconds())/1e3)
				recorded[c].Store(int64(len(lats[c])))
				if err != nil {
					failed.Add(1)
				}
				done.Add(1)
			}
		}(c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	// Each window records where every client's samples stood at its end.
	type mark struct {
		cpu   time.Duration
		ops   int64
		noise hostNoise
		upto  []int64
	}
	snap := func() mark {
		m := mark{cpu: cpuTime(), ops: done.Load(), noise: readNoise(), upto: make([]int64, clients)}
		for c := range m.upto {
			m.upto[c] = recorded[c].Load()
		}
		return m
	}
	marks := []mark{snap()}
	tick := time.NewTicker(window)
	for running := true; running; {
		select {
		case <-tick.C:
		case <-finished:
			running = false
		}
		marks = append(marks, snap())
	}
	tick.Stop()

	res.wall = time.Since(start)
	res.noise = readNoise().since(noise0)
	runtime.ReadMemStats(&ms)
	res.allocBytes = ms.TotalAlloc - alloc0
	res.ops, res.failed = done.Load(), failed.Load()
	for k := 1; k < len(marks); k++ {
		a, b := marks[k-1], marks[k]
		w := windowStat{cpu: b.cpu - a.cpu, ops: b.ops - a.ops, noise: b.noise.since(a.noise)}
		for c := range lats {
			w.lat = append(w.lat, lats[c][a.upto[c]:b.upto[c]]...)
		}
		if w.ops > 0 {
			res.windows = append(res.windows, w)
		}
	}
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	return res
}

// merge adds another phase's ops, latencies and counts to r.
func (r *loopResult) merge(o loopResult) {
	r.ops += o.ops
	r.failed += o.failed
	r.wall += o.wall
	r.lat = append(r.lat, o.lat...)
	r.windows = append(r.windows, o.windows...)
	r.allocBytes += o.allocBytes
	r.noise.stealTicks += o.noise.stealTicks
	r.noise.totalTicks += o.noise.totalTicks
	r.noise.runNs += o.noise.runNs
	r.noise.waitNs += o.noise.waitNs
}

// quiet returns the CPU per op (µs) and the median latency (µs) over the
// third of the windows, at least three, in which the host stole the least.
// A regression in the program slows every window alike, so it shows here;
// a burst of steal lands in the windows this leaves out.
func (r loopResult) quiet() (cpuPerOp, p50 float64, n int) {
	ws := append([]windowStat(nil), r.windows...)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].noise.stealShare() < ws[j].noise.stealShare() })
	ws = ws[:min(len(ws), max(3, len(ws)/3))]
	var cpu time.Duration
	var ops int64
	var lat []float64
	for _, w := range ws {
		cpu += w.cpu
		ops += w.ops
		lat = append(lat, w.lat...)
	}
	return float64(cpu.Nanoseconds()) / 1e3 / float64(ops), quantile(lat, 0.5), len(ws)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs (sorted in place), linearly
// interpolated.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail reports the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, as "p99=123.4us(n=45678)"; empty when the sample is too
// small for any tail.
func tail(lat []float64) string {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(lat))*(1-q) >= 10 {
			return fmt.Sprintf("p%s=%.1fus(n=%d)", strconv.FormatFloat(q*100, 'f', -1, 64), quantile(lat, q), len(lat))
		}
	}
	return ""
}

// hostNoise records how much of the machine the hypervisor and the run
// queue took during a phase, read (never written) from /proc, so a slow run
// can be told apart from a slow program.
type hostNoise struct {
	stealTicks, totalTicks uint64 // /proc/stat, all CPUs
	runNs, waitNs          uint64 // /proc/self/task/*/schedstat, summed
}

func readNoise() hostNoise {
	var h hostNoise
	if f, err := os.Open("/proc/stat"); err == nil {
		sc := bufio.NewScanner(f)
		if sc.Scan() {
			fields := strings.Fields(sc.Text())
			for i, fld := range fields[1:] {
				v, _ := strconv.ParseUint(fld, 10, 64) // a malformed field reads as zero ticks
				if i < 8 {                             // guest time is already inside user time
					h.totalTicks += v
				}
				if i == 7 {
					h.stealTicks = v
				}
			}
		}
		f.Close()
	}
	tasks, _ := filepath.Glob("/proc/self/task/*/schedstat") // no tasks reads as no run-queue data
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		fields := strings.Fields(string(b))
		if len(fields) >= 2 {
			run, _ := strconv.ParseUint(fields[0], 10, 64)
			wait, _ := strconv.ParseUint(fields[1], 10, 64)
			h.runNs += run
			h.waitNs += wait
		}
	}
	return h
}

func (h hostNoise) since(prev hostNoise) hostNoise {
	d := hostNoise{
		stealTicks: h.stealTicks - prev.stealTicks,
		totalTicks: h.totalTicks - prev.totalTicks,
	}
	// Threads can exit between the two readings; clamp rather than wrap.
	if h.runNs > prev.runNs {
		d.runNs = h.runNs - prev.runNs
	}
	if h.waitNs > prev.waitNs {
		d.waitNs = h.waitNs - prev.waitNs
	}
	return d
}

// String renders the steal share of all CPU time and the share of this
// process's runnable time spent waiting for a CPU.
func (h hostNoise) String() string {
	wait := 0.0
	if h.runNs+h.waitNs > 0 {
		wait = float64(h.waitNs) / float64(h.runNs+h.waitNs)
	}
	return fmt.Sprintf("steal_share=%.3f runq_wait_share=%.3f", h.stealShare(), wait)
}

func (h hostNoise) stealShare() float64 {
	if h.totalTicks == 0 {
		return 0
	}
	return float64(h.stealTicks) / float64(h.totalTicks)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
