package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"enhancedbhpo/internal/coord"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve"
)

// The service job: a small SHA or SHA+ search, so that thousands of jobs
// fit in a run and the service layers around the fits show.
const (
	svcDataset = "australian"
	svcScale   = 0.2
	svcHPs     = 2
	svcConfigs = 8
	svcIters   = 5
	// svcPrimed is how many datasets the warm workloads prime a SHA and a
	// SHA+ job on during set-up and then draw their jobs from. Every job
	// still refits its best configuration, whose cost follows the dataset
	// and varies several-fold between datasets, so the primed set is
	// fixed and the workload seed only orders the draws: a run's cost
	// then depends on the service, not on which datasets a seed picked.
	svcPrimed = 12
	// svcSetupRepeat is how often an untraced run builds its stack; set-up
	// time is the median.
	svcSetupRepeat = 3
	// warmUpSeed is the search seed of svc-cold's scope-building jobs,
	// outside the range its measured jobs use.
	warmUpSeed = 1 << 62
)

// clients is the closed loop's concurrency, one per CPU of the 2-CPU
// reference host: each client waits for its job to finish before
// sending the next, as HPO callers wait on their study.
const clients = 2

// svcJob is one job a client sends.
type svcJob struct {
	enhanced bool
	data     uint64 // dataset seed
	seed     uint64 // search seed
	tenant   string
}

func (j svcJob) spec() serve.JobSpec {
	return serve.JobSpec{
		Tenant:      j.tenant,
		Dataset:     svcDataset,
		Scale:       svcScale,
		DatasetSeed: j.data,
		Method:      "sha",
		Enhanced:    j.enhanced,
		NumHPs:      svcHPs,
		MaxConfigs:  svcConfigs,
		Seed:        j.seed,
		Iters:       svcIters,
	}
}

// key identifies the search, whatever tenant sends it.
func (j svcJob) key() string {
	return fmt.Sprintf("%s/data%d/seed%d", variantName(j.enhanced), j.data, j.seed)
}

// jobSample is what a client saw of one job.
type jobSample struct {
	job                       svcJob
	id                        string // as the client addresses it
	start, posted, first, end time.Time
	status                    string
	events                    int
	err                       error
}

func (s jobSample) latency() time.Duration { return s.end.Sub(s.start) }

type svcClient struct {
	http *http.Client
	base string
}

func newSvcClient(base string) *svcClient {
	return &svcClient{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
}

// runJob submits one job and follows its event stream to the terminal
// status event, as `bhpo watch` does.
func (c *svcClient) runJob(job svcJob) jobSample {
	s := jobSample{job: job, start: time.Now()}
	body, err := json.Marshal(job.spec())
	if err != nil {
		s.err = err
		return s
	}
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	var snap serve.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	s.posted = time.Now()
	if resp.StatusCode != http.StatusAccepted || err != nil || snap.ID == "" {
		s.err = fmt.Errorf("POST /jobs: status %d, decode error %v", resp.StatusCode, err)
		return s
	}
	s.id = snap.ID

	resp, err = c.http.Get(c.base + "/jobs/" + s.id + "/events")
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("GET events: status %d", resp.StatusCode)
		return s
	}
	rd := newSSEReader(resp.Body)
	for {
		ev, err := rd.next()
		if err != nil {
			s.err = fmt.Errorf("event stream of %s ended before the terminal event: %w", s.id, err)
			return s
		}
		s.events++
		if ev.Event == "curve_point" && s.first.IsZero() {
			s.first = time.Now()
		}
		status, terminal, err := terminalStatus(ev)
		if err != nil {
			s.err = err
			return s
		}
		if terminal {
			s.end = time.Now()
			s.status = status
			return s
		}
	}
}

func (c *svcClient) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drive runs the closed loop: every client sends its next job once the
// previous one ended, until the time is up; jobs in flight then finish.
func drive(c *svcClient, dur time.Duration, seed uint64, next func(client, n int, r *rand.Rand) svcJob) []jobSample {
	deadline := time.Now().Add(dur)
	var mu sync.Mutex
	var samples []jobSample
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(seed)*7919 + int64(cl)))
			for n := 0; time.Now().Before(deadline); n++ {
				s := c.runJob(next(cl, n, r))
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	return samples
}

// worker is one in-process job service.
type worker struct {
	name string
	mgr  *serve.Manager
	srv  *httptest.Server
	api  *svcClient
}

// stack is the service under test, one worker or two behind a
// coordinator, plus what set-up learnt about it.
type stack struct {
	workers []*worker
	coord   *coord.Coordinator
	front   *httptest.Server // the coordinator's listener, if any
	api     *svcClient       // where clients send jobs
	evals   *evalTracer      // nil when untraced

	primed     map[string]float64 // job key → best score when primed
	primedData []uint64           // dataset seeds the warm workloads draw from
}

// newWorker boots a job service journaled under dir.
func newWorker(name string, cfg serve.Config, dir string, evals *evalTracer) (*worker, error) {
	cfg.NodeName = name
	if evals != nil {
		cfg.WrapEvaluator = evals.wrap(name)
	}
	cfg.DataDir = filepath.Join(dir, "node-"+name)
	// Rotation off: journal_bytes then grows by exactly what each job
	// appends (and fsyncs), instead of dropping when a segment compacts.
	cfg.JournalMaxBytes = -1
	m, err := serve.NewManagerFromJournal(cfg)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(serve.NewServer(m))
	return &worker{name: name, mgr: m, srv: srv, api: newSvcClient(srv.URL)}, nil
}

func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	if s.coord != nil {
		s.coord.Shutdown()
	}
	for _, w := range s.workers {
		w.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.mgr.Shutdown(ctx)
		cancel()
	}
}

// counters sums the workers' /metrics.
type counters struct {
	evaluations, fused, fallbacks, hits, misses int64
	journalBytes, traceBytes                    int64
}

func (s *stack) counters() (counters, error) {
	var c counters
	for _, w := range s.workers {
		var m serve.Metrics
		if err := w.api.getJSON("/metrics", &m); err != nil {
			return c, err
		}
		c.evaluations += m.Evaluations
		c.fused += m.EvalsFused
		c.fallbacks += m.FuseFallbacks
		c.hits += m.CacheHits
		c.misses += m.CacheMisses
		c.journalBytes += m.JournalBytes
		c.traceBytes += m.TraceStoreBytes
	}
	return c, nil
}

func (c counters) minus(o counters) counters {
	return counters{
		evaluations: c.evaluations - o.evaluations, fused: c.fused - o.fused,
		fallbacks: c.fallbacks - o.fallbacks, hits: c.hits - o.hits, misses: c.misses - o.misses,
		journalBytes: c.journalBytes - o.journalBytes,
		traceBytes:   c.traceBytes - o.traceBytes,
	}
}

// evalTracer is the traced pass's Config.WrapEvaluator: it times every
// evaluation a job asks for, between the pool gate and the cache.
type evalTracer struct {
	mu    sync.Mutex
	byJob map[string][]span // node/job → evaluation spans
}

func (t *evalTracer) wrap(node string) func(string, hpo.Evaluator) hpo.Evaluator {
	return func(jobID string, inner hpo.Evaluator) hpo.Evaluator {
		return &timedEvaluator{inner: inner, t: t, key: qualify(node, jobID)}
	}
}

type timedEvaluator struct {
	inner hpo.Evaluator
	t     *evalTracer
	key   string
}

func (e *timedEvaluator) FullBudget() int { return e.inner.FullBudget() }

func (e *timedEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	start := time.Now()
	scores, err := e.inner.Evaluate(cfg, budget, r)
	s := span{Trace: e.key, Name: "evaluate", Start: start, End: time.Now()}
	e.t.mu.Lock()
	e.t.byJob[e.key] = append(e.t.byJob[e.key], s)
	e.t.mu.Unlock()
	return scores, err
}

func qualify(node, id string) string {
	if node == "" {
		return id
	}
	return node + ":" + id
}

// svcShape is what distinguishes the three service workloads.
type svcShape struct {
	cluster bool
	warm    bool
	cfg     serve.Config // per worker
	// tenant names the tenant of each client.
	tenant func(client int) string
	// pinVariant gives each client one variant for the whole run instead
	// of alternating: in the cluster the SHA and SHA+ scopes live on
	// different workers, so the two clients never contend for a worker.
	pinVariant bool
}

// build boots the stack and warms it: svc-cold runs one job per
// variant so both scopes hold their data and groups; the warm workloads
// prime every job they will later send.
func (sh svcShape) build(p pass, dir string) (*stack, error) {
	var evals *evalTracer
	if p.rec != nil {
		evals = &evalTracer{byJob: map[string][]span{}}
	}
	st := &stack{evals: evals, primed: map[string]float64{}}
	names := []string{""}
	if sh.cluster {
		names = []string{"a", "b"}
	}
	for _, n := range names {
		w, err := newWorker(n, sh.cfg, dir, evals)
		if err != nil {
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, w)
	}
	st.api = st.workers[0].api
	if sh.cluster {
		nodes := make([]coord.Node, len(st.workers))
		for i, w := range st.workers {
			nodes[i] = coord.Node{Name: w.name, URL: w.srv.URL}
		}
		c, err := coord.New(coord.Config{Nodes: nodes})
		if err != nil {
			st.close()
			return nil, err
		}
		c.ProbeNow()
		c.Start()
		st.coord = c
		st.front = httptest.NewServer(c)
		st.api = newSvcClient(st.front.URL)
	}

	var warmUp []svcJob
	if sh.warm {
		data, err := primedDatasets(names)
		if err != nil {
			st.close()
			return nil, err
		}
		st.primedData = data
		for _, ds := range data {
			warmUp = append(warmUp, svcJob{enhanced: false, data: ds, seed: ds}, svcJob{enhanced: true, data: ds, seed: ds})
		}
	} else {
		warmUp = []svcJob{{enhanced: false, data: p.seed, seed: warmUpSeed}, {enhanced: true, data: p.seed, seed: warmUpSeed}}
	}
	for _, j := range warmUp {
		s := st.api.runJob(j)
		if s.err != nil || s.status != "done" {
			st.close()
			return nil, fmt.Errorf("set-up job %s: status %q, %v", j.key(), s.status, s.err)
		}
		var snap serve.Snapshot
		if err := st.api.getJSON("/jobs/"+s.id, &snap); err != nil || snap.BestScore == nil {
			st.close()
			return nil, fmt.Errorf("set-up job %s: no best score (%v)", j.key(), err)
		}
		st.primed[j.key()] = *snap.BestScore
	}
	if evals != nil {
		// Only the measured jobs' evaluations count.
		evals.mu.Lock()
		evals.byJob = map[string][]span{}
		evals.mu.Unlock()
	}
	return st, nil
}

// primedDatasets picks the warm workloads' svcPrimed dataset seeds, the
// first from 1 upwards. Behind the coordinator (two nodes) it keeps only
// datasets whose SHA scope the coordinator's ring places on the first
// worker and whose SHA+ scope it places on the second, so a client that
// sends one variant always reaches the same worker.
func primedDatasets(nodes []string) ([]uint64, error) {
	ring := coord.NewRing(0)
	for _, n := range nodes {
		ring.Add(n)
	}
	var out []uint64
	for ds := uint64(1); len(out) < svcPrimed && ds < 100000; ds++ {
		if len(nodes) < 2 ||
			ring.Owner(svcJob{enhanced: false, data: ds}.spec().CacheScope()) == nodes[0] &&
				ring.Owner(svcJob{enhanced: true, data: ds}.spec().CacheScope()) == nodes[1] {
			out = append(out, ds)
		}
	}
	if len(out) < svcPrimed {
		return nil, fmt.Errorf("found %d of %d dataset seeds that split SHA and SHA+ across the nodes", len(out), svcPrimed)
	}
	return out, nil
}

func runSvcCold(p pass) (*passResult, error) {
	return runService(p, svcShape{
		cfg:    serve.Config{PoolSize: clients, MaxJobs: clients},
		tenant: func(int) string { return "" },
	})
}

func runSvcWarm(p pass) (*passResult, error) {
	return runService(p, svcShape{
		warm: true,
		// Fewer job slots than clients, so jobs queue and the weighted-fair
		// scheduler preempts at rung boundaries.
		cfg:    serve.Config{PoolSize: clients, MaxJobs: clients - 1, TenantWeights: map[string]int{"gold": 3, "bronze": 1}},
		tenant: func(cl int) string { return [...]string{"gold", "bronze"}[cl%2] },
	})
}

func runClusterWarm(p pass) (*passResult, error) {
	return runService(p, svcShape{
		cluster:    true,
		warm:       true,
		pinVariant: true,
		// The two workers split the machine's evaluation slots.
		cfg:    serve.Config{PoolSize: clients / 2, MaxJobs: clients},
		tenant: func(int) string { return "" },
	})
}

func runService(p pass, sh svcShape) (*passResult, error) {
	repeats := 1
	if p.rec == nil {
		repeats = svcSetupRepeat
	}
	var setups []float64
	var run *stack
	for i := 0; i < repeats; i++ {
		if run != nil {
			run.close()
		}
		t0 := time.Now()
		r, err := sh.build(p, filepath.Join(p.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		run = r
	}
	defer run.close()

	next := func(cl, n int, r *rand.Rand) svcJob {
		j := svcJob{enhanced: (cl+n)%2 == 1, data: p.seed, seed: p.seed*1_000_000 + uint64(n*clients+cl) + 1, tenant: sh.tenant(cl)}
		if sh.pinVariant {
			j.enhanced = cl%2 == 1
		}
		if sh.warm {
			j.data = run.primedData[r.Intn(len(run.primedData))]
			j.seed = j.data
		}
		return j
	}

	before, err := run.counters()
	if err != nil {
		return nil, err
	}
	var msBefore runtime.MemStats
	if p.rec != nil {
		runtime.ReadMemStats(&msBefore)
	}
	loadStart := time.Now()
	samples := drive(run.api, p.dur, p.seed, next)
	var msAfter runtime.MemStats
	if p.rec != nil {
		runtime.ReadMemStats(&msAfter)
	}
	after, err := run.counters()
	if err != nil {
		return nil, err
	}
	delta := after.minus(before)

	res := newPassResult()
	res.e2e["setup_s"] = median(setups)
	snaps := make([]serve.Snapshot, len(samples))
	var shaS, plusS, allMS, firstMS []float64
	var last time.Time
	nodes := map[string]int{}
	for i, s := range samples {
		res.attempted++
		if s.err != nil || s.status != "done" {
			res.failed++
			res.problem("job %s (%s): status %q, %v", s.id, s.job.key(), s.status, s.err)
			continue
		}
		if err := run.api.getJSON("/jobs/"+s.id, &snaps[i]); err != nil {
			res.failed++
			res.problem("job %s: %v", s.id, err)
			continue
		}
		snap := snaps[i]
		if snap.Status != serve.StatusDone || snap.BestScore == nil || snap.StartedAt == nil || snap.FinishedAt == nil {
			res.failed++
			res.problem("job %s: snapshot status %q without a best score or timestamps", s.id, snap.Status)
			continue
		}
		if want, ok := run.primed[s.job.key()]; sh.warm && (!ok || math.Float64bits(want) != math.Float64bits(*snap.BestScore)) {
			res.problem("job %s (%s): best score %v, primed %v", s.id, s.job.key(), *snap.BestScore, want)
		}
		res.scores[s.job.key()] = *snap.BestScore
		if node, _, ok := strings.Cut(s.id, ":"); ok {
			nodes[node]++
		}
		lat := s.latency().Seconds()
		allMS = append(allMS, lat*1000)
		if s.job.enhanced {
			plusS = append(plusS, lat)
		} else {
			shaS = append(shaS, lat)
		}
		if !s.first.IsZero() {
			firstMS = append(firstMS, msOf(s.first.Sub(s.start)))
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	done := len(allMS)
	if done == 0 {
		res.problem("no job finished")
		return res, nil
	}
	if len(shaS) == 0 || len(plusS) == 0 {
		res.problem("the run finished %d SHA and %d SHA+ jobs; it needs both", len(shaS), len(plusS))
	}
	if sh.warm && delta.misses != 0 {
		res.problem("%d cache misses in a warm workload", delta.misses)
	}
	if !sh.warm && delta.hits != 0 {
		res.problem("%d cache hits in a cold workload", delta.hits)
	}
	if sh.cluster && len(nodes) != len(run.workers) {
		res.problem("jobs landed on %d of %d nodes: %v", len(nodes), len(run.workers), nodes)
	}

	res.e2e["sha_s"] = median(shaS)
	res.e2e["sha_plus_s"] = median(plusS)
	res.e2e["job_p50_ms"] = median(allMS)
	res.e2e["jobs_per_s"] = float64(done) / last.Sub(loadStart).Seconds()
	res.detail["unit_of_work"] = "one job: POST /jobs to the terminal event on GET /jobs/{id}/events"
	res.detail["jobs"] = map[string]int{"sha": len(shaS), "sha_plus": len(plusS), "attempted": res.attempted}
	res.detail["job_p90_ms"] = reportable(allMS, 0.90)
	res.detail["job_p99_ms"] = reportable(allMS, 0.99)
	res.detail["first_point_p50_ms"] = median(firstMS)
	res.detail["error_rate"] = float64(res.failed) / float64(res.attempted)
	if sh.cluster {
		res.detail["jobs_per_node"] = nodes
	}

	if p.rec != nil {
		serviceLayers(p.rec, run, samples, snaps, delta, done, res)
		l := res.layer
		l["first_point_p50_ms"] = median(firstMS)
		l["allocs_per_eval"] = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(max(1, delta.evaluations))
		l["bytes_per_eval"] = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(max(1, delta.evaluations))
		if sh.cluster {
			if err := clusterLayers(run, samples, res); err != nil {
				return nil, err
			}
			most := 0
			for _, n := range nodes {
				most = max(most, n)
			}
			l["node_share_max"] = float64(most) / float64(done)
		}
	}
	return res, nil
}

// serviceLayers turns the traced pass's samples, snapshots and counter
// deltas into spans and per-layer metrics.
func serviceLayers(rec *recorder, run *stack, samples []jobSample, snaps []serve.Snapshot, delta counters, done int, res *passResult) {
	var submitMS, runMS, queueMS, lagMS, evalMS, runSelfMS []float64
	events, evalCalls, trials, preempts := 0, 0, 0, 0
	run.evals.mu.Lock()
	byJob := run.evals.byJob
	run.evals.mu.Unlock()
	for i, s := range samples {
		snap := snaps[i]
		if s.err != nil || snap.FinishedAt == nil || snap.StartedAt == nil {
			continue
		}
		trace := s.id
		submitted, started, finished := snap.SubmittedAt, *snap.StartedAt, *snap.FinishedAt
		end := s.end.Round(0) // wall clock, comparable with the server's stamps
		rootID := rec.newID()
		rec.record(trace, "submit", rootID, s.start.Round(0), s.posted.Round(0))
		rec.record(trace, "queue", rootID, submitted, started)
		lag := rec.record(trace, "sse_lag", rootID, finished, end)
		runSpan := span{ID: rec.newID(), Parent: rootID, Trace: trace, Name: "run", Start: started, End: finished}
		rec.add(runSpan)
		// The tracer keys jobs as clients address them: "job-3" on one
		// worker, "a:job-3" through the coordinator.
		kids := byJob[s.id]
		for _, k := range kids {
			k.ID, k.Parent = rec.newID(), runSpan.ID
			rec.add(k)
			evalMS = append(evalMS, msOf(k.dur()))
		}
		rec.add(span{ID: rootID, Trace: trace, Name: "job", Start: s.start.Round(0), End: end})
		runSelfMS = append(runSelfMS, msOf(runSpan.dur()-covered(runSpan, kids)))
		submitMS = append(submitMS, msOf(s.posted.Sub(s.start)))
		runMS = append(runMS, msOf(runSpan.dur()))
		queueMS = append(queueMS, msOf(started.Sub(submitted)))
		lagMS = append(lagMS, msOf(lag.dur()))
		events += s.events
		evalCalls += len(kids)
		trials += snap.Evaluations
		preempts += snap.Preemptions
	}
	l := res.layer
	l["evals_per_job"] = float64(trials) / float64(done)
	l["eval_ms_p50"] = median(evalMS)
	l["eval_calls_per_trial"] = float64(evalCalls) / float64(max(1, trials))
	l["submit_ms_p50"] = median(submitMS)
	l["submit_ms_p99"] = reportable(submitMS, 0.99)
	l["run_ms_p50"] = median(runMS)
	l["run_self_ms_p50"] = median(runSelfMS)
	l["fused_share"] = float64(delta.fused) / float64(max(1, delta.misses))
	l["fuse_fallbacks"] = float64(delta.fallbacks)
	l["queue_wait_ms_p50"] = median(queueMS)
	l["queue_wait_ms_p99"] = reportable(queueMS, 0.99)
	l["preemptions_per_job"] = float64(preempts) / float64(done)
	l["cache_hit_ratio"] = float64(delta.hits) / float64(max(1, delta.hits+delta.misses))
	l["journal_bytes_per_job"] = float64(delta.journalBytes) / float64(done)
	l["trace_bytes_per_job"] = float64(delta.traceBytes) / float64(done)
	l["sse_lag_ms_p50"] = median(lagMS)
	l["events_per_job"] = float64(events) / float64(done)
}

// clusterLayers measures what the coordinator adds: the same GET
// /jobs/{id} through the coordinator and straight to the owning worker,
// in alternating order, and the submits it retried.
func clusterLayers(run *stack, samples []jobSample, res *passResult) error {
	urls := map[string]*svcClient{}
	for _, w := range run.workers {
		urls[w.name] = w.api
	}
	var diffs []float64
	var snap serve.Snapshot
	for i, s := range samples {
		node, local, ok := strings.Cut(s.id, ":")
		if !ok || s.err != nil || len(diffs) >= 200 {
			continue
		}
		direct := urls[node]
		if direct == nil {
			return fmt.Errorf("job %s names unknown node %q", s.id, node)
		}
		var viaCoord, viaWorker time.Duration
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			var err error
			if (i+k)%2 == 0 {
				err = run.api.getJSON("/jobs/"+s.id, &snap)
				viaCoord = time.Since(t0)
			} else {
				err = direct.getJSON("/jobs/"+local, &snap)
				viaWorker = time.Since(t0)
			}
			if err != nil {
				return err
			}
		}
		diffs = append(diffs, msOf(viaCoord-viaWorker))
	}
	var cm coord.ClusterMetrics
	if err := run.api.getJSON("/metrics", &cm); err != nil {
		return err
	}
	res.layer["route_overhead_ms_p50"] = median(diffs)
	res.layer["submit_retries"] = float64(cm.SubmitRetries)
	return nil
}
