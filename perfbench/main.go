// Command perfbench is the mediator's end-to-end benchmark: it boots the
// three-tier deployment (three SPARQL endpoints, the sameAs service over
// HTTP and the mediator's /sparql handler, wired like cmd/mediator) in a
// child process, drives POST /sparql from this process with at most two
// connections, checks every answer against a ground-truth oracle and
// prints one JSON result line.
//
//	perfbench --workload fanout|join|hot --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics (closed-loop throughput,
// open-loop latency, per-query CPU and allocations of the deployment
// process, set-up time); --trace 1 reports the per-layer breakdown. Run
// it from the repository root through perfbench/run.sh, which builds it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"sparqlrw/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "deploy" {
		if err := runDeploy(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench deploy:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runBench(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type deployFlags struct {
	workload     string
	universeSeed int64
	trace        bool
}

func parseDeployFlags(args []string) (deployFlags, error) {
	var f deployFlags
	fs := flag.NewFlagSet("deploy", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload name")
	fs.Int64Var(&f.universeSeed, "universe-seed", 42, "universe seed")
	fs.BoolVar(&f.trace, "trace", false, "install the per-handler wrappers")
	return f, fs.Parse(args)
}

type benchFlags struct {
	workload     string
	seed         int64
	universeSeed int64
	seconds      float64
	trace        bool
}

// setupRepeats is how many deployments a run sets up; setup_s is the
// median of their set-up times and the last one is measured.
const setupRepeats = 3

func parseBenchFlags(args []string) (benchFlags, error) {
	var f benchFlags
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload: fanout, join or hot")
	fs.Int64Var(&f.seed, "seed", 1, "query-stream seed")
	fs.Int64Var(&f.universeSeed, "universe-seed", 42, "universe (data) seed")
	fs.Float64Var(&f.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if _, ok := workloads[f.workload]; !ok {
		return f, fmt.Errorf("unknown --workload %q (want one of %v)", f.workload, workloadNames())
	}
	if f.seconds <= 0 {
		return f, errors.New("--seconds must be positive")
	}
	f.trace = trace == 1
	return f, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// deployment is one running deployment child process.
type deployment struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	info  deployInfo
}

func startDeployment(spec *workloadSpec, universeSeed int64, trace bool) (*deployment, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"deploy", "--workload", spec.name,
		"--universe-seed", strconv.FormatInt(universeSeed, 10),
		"--trace=" + strconv.FormatBool(trace)}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &deployment{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err == nil {
		err = json.Unmarshal([]byte(line), &d.info)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("deployment did not come up: %w", err)
	}
	go func() { _, _ = io.Copy(io.Discard, stdout) }()
	return d, nil
}

// stop closes the deployment's stdin (its signal to exit) and waits for
// it, killing it if it lingers.
func (d *deployment) stop() {
	_ = d.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// run is one benchmark invocation's live state.
type run struct {
	f      benchFlags
	spec   *workloadSpec
	u      *workload.Universe
	hot    []int
	oracle *oracle
	dep    *deployment
	g      *loadgen

	baseline   map[string]int // work goroutines before load, by stack
	leaked     int
	warmFailed int
	guardErr   error
}

func runBench(args []string) (*result, error) {
	f, err := parseBenchFlags(args)
	if err != nil {
		return nil, err
	}
	r := &run{f: f, spec: workloads[f.workload]}
	r.u = workload.Generate(universeConfig(f.universeSeed))
	r.hot = hotPopulation(f.universeSeed)
	persons := r.hot
	if !r.spec.views {
		persons = make([]int, universePersons)
		for i := range persons {
			persons[i] = i
		}
	}
	r.oracle = newOracle(r.u, persons)

	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if r.dep != nil {
			r.dep.stop()
		}
		secs, err := r.setUp()
		if err != nil {
			if r.dep != nil {
				r.dep.stop()
			}
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer r.dep.stop()
	if err := r.waitGoroutines(true); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var phases []*phaseResult
	if f.trace {
		phases, err = r.tracedRun(res)
	} else {
		phases, err = r.untracedRun(res, setups)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0 && r.warmFailed == 0 && r.leaked == 0 && r.guardErr == nil && res.Attempted > 0
	if !res.Correct {
		reason := "failed requests"
		if v := r.g.checkFail.Load(); v != nil {
			reason = v.(string)
		}
		if r.leaked != 0 {
			reason = fmt.Sprintf("%d goroutines leaked", r.leaked)
		}
		if r.guardErr != nil {
			reason = r.guardErr.Error()
		}
		fmt.Fprintf(os.Stderr, "perfbench: run not correct: %s (failed %d of %d, warm-up failures %d)\n",
			reason, res.Failed, res.Attempted, r.warmFailed)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	return res, nil
}

// setUp starts a deployment and warms it; the returned duration runs
// from process start through universe generation, listeners, KB
// registration and warm-up to the point timing can start.
func (r *run) setUp() (float64, error) {
	start := time.Now()
	dep, err := startDeployment(r.spec, r.f.universeSeed, r.f.trace)
	if err != nil {
		return 0, err
	}
	r.dep = dep
	r.g = newLoadgen(r.spec, r.f.seed, r.f.universeSeed, r.hot, r.oracle, dep.info.Mediator)
	count := func(p *phaseResult) { r.warmFailed += p.failed }
	count(r.g.closedLoop(0, r.spec.warmup, false))
	if r.spec.views {
		// Caches fill and views reach their cap before timing starts.
		deadline := time.Now().Add(60 * time.Second)
		for {
			var vs viewsDoc
			if err := r.g.getJSON(dep.info.Mediator+"/api/views", &vs); err != nil {
				return 0, err
			}
			if vs.ready() >= viewCap {
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("warm-up: %d of %d views ready after 60s", vs.ready(), viewCap)
			}
			count(r.g.closedLoop(0, 100, false))
		}
	}
	if _, err := r.settle(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// viewCap is the view tier's default MaxViews.
const viewCap = 8

type viewsDoc struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Refreshes uint64 `json:"refreshes"`
	Views     []struct {
		State string `json:"state"`
	} `json:"views"`
}

func (v *viewsDoc) ready() int {
	n := 0
	for _, x := range v.Views {
		if x.State == "ready" {
			n++
		}
	}
	return n
}

// settle waits until the mediator reports no query in flight and, with
// views on, every view is fresh again; it returns the settled stats.
func (r *run) settle() (*medStats, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := r.stats()
		if err != nil {
			return nil, err
		}
		quiet := st.InFlight == 0
		if st.Views != nil {
			for _, v := range st.Views.Views {
				if v.State != "ready" {
					quiet = false
				}
			}
		}
		if quiet {
			return st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("deployment did not settle within 30s (inFlight=%d)", st.InFlight)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitGoroutines settles the goroutine count. With record set it takes
// the baseline once two readings 100ms apart agree; otherwise it waits up
// to 5s for the count to return to the baseline and records any
// difference as leaked, naming the stacks that differ.
func (r *run) waitGoroutines(record bool) error {
	r.g.client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	var prev map[string]int
	for {
		var stacks map[string]int
		if err := r.g.getJSON(r.dep.info.Control+"/goroutines", &stacks); err != nil {
			return err
		}
		n := total(stacks)
		if record {
			if prev != nil && n == total(prev) || time.Now().After(deadline) {
				r.baseline = stacks
				return nil
			}
			prev = stacks
			time.Sleep(100 * time.Millisecond)
			continue
		}
		base := total(r.baseline)
		if n == base {
			return nil
		}
		if time.Now().After(deadline) {
			if d := n - base; r.leaked == 0 || d > r.leaked {
				r.leaked = d
			}
			for sig, c := range stacks {
				if c != r.baseline[sig] {
					fmt.Fprintf(os.Stderr, "perfbench: goroutines %d -> %d: %s\n", r.baseline[sig], c, sig)
				}
			}
			for sig, c := range r.baseline {
				if _, ok := stacks[sig]; !ok {
					fmt.Fprintf(os.Stderr, "perfbench: goroutines %d -> 0: %s\n", c, sig)
				}
			}
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func total(counts map[string]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// endPhase settles the deployment after a phase, checks for leaked
// goroutines and applies the workload's route guard to the phase's stats
// delta.
func (r *run) endPhase(before *medStats) (*medStats, error) {
	after, err := r.settle()
	if err != nil {
		return nil, err
	}
	if err := r.waitGoroutines(false); err != nil {
		return nil, err
	}
	if err := r.spec.guard(routesOf(before, after)); err != nil && r.guardErr == nil {
		r.guardErr = err
	}
	return after, nil
}

func (r *run) stats() (*medStats, error) {
	var st medStats
	err := r.g.getJSON(r.dep.info.Mediator+"/api/stats", &st)
	return &st, err
}

func (r *run) runtime() (*runtimeSnapshot, error) {
	var rt runtimeSnapshot
	err := r.g.getJSON(r.dep.info.Control+"/runtime", &rt)
	return &rt, err
}

// openSamples is the least number of open-loop queries a run times, so
// that at least 10 samples lie beyond the p99.
const openSamples = 1100

// splitSeconds divides the measured time between the closed-loop and the
// open-loop phase: the open loop gets 60%, or more when the workload's
// rate needs longer to send openSamples queries, but never more than 80%.
func (r *run) splitSeconds(total time.Duration) (closed, open time.Duration) {
	open = time.Duration(0.6 * float64(total))
	if need := time.Duration(openSamples / r.spec.openRate * float64(time.Second)); need > open {
		open = min(need, time.Duration(0.8*float64(total)))
	}
	return total - open, open
}

// untracedRun measures the end-to-end metrics: a closed-loop phase
// (throughput, CPU and allocations per query) then an open-loop phase at
// the workload's fixed rate (latency, time to first row). Wall-clock
// figures are medians over windows of the phase, so a burst of
// interference from outside the benchmark moves one window, not the
// result.
func (r *run) untracedRun(res *result, setups []float64) ([]*phaseResult, error) {
	closedDur, openDur := r.splitSeconds(time.Duration(r.f.seconds * float64(time.Second)))
	st0, err := r.stats()
	if err != nil {
		return nil, err
	}
	steal := startStealClock()
	defer steal.close()
	closed, ticks, err := r.sampledClosedLoop(closedDur)
	if err != nil {
		return nil, err
	}
	st1, err := r.endPhase(st0)
	if err != nil {
		return nil, err
	}
	open := r.g.openLoop(r.spec.openRate, openDur)
	if _, err := r.endPhase(st1); err != nil {
		return nil, err
	}
	qps, cpu := closedWindows(ticks, steal)
	p50, _, first := openWindows(open, steal)
	first0, last := ticks[0].rt, ticks[len(ticks)-1].rt
	nq := float64(ticks[len(ticks)-1].queries - ticks[0].queries)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("qps", "queries/s", qps)
	put("latency_p50_ms", "ms", p50)
	put("first_row_p50_ms", "ms", first)
	put("cpu_ms_per_query", "ms", cpu)
	put("allocs_per_query", "count", float64(last.Mallocs-first0.Mallocs)/nq)
	put("alloc_kb_per_query", "KiB", float64(last.AllocBytes-first0.AllocBytes)/1024/nq)
	rt, err := r.runtime()
	if err != nil {
		return nil, err
	}
	put("rss_peak_mb", "MiB", float64(rt.MaxRSSKB)/1024)
	put("setup_s", "s", median(setups))
	return []*phaseResult{closed, open}, nil
}

// latencies returns the successful queries' latencies and first-row
// times in milliseconds.
func latencies(p *phaseResult) (lat, first []float64) {
	for _, o := range p.outcomes {
		if o.write || !o.ok {
			continue
		}
		lat = append(lat, ms(o.latency))
		if o.firstRow > 0 {
			first = append(first, ms(o.firstRow))
		}
	}
	return lat, first
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
