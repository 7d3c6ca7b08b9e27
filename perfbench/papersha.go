package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/scoring"
	"enhancedbhpo/internal/search"
)

// The paper-sha cell: Table IV's SHA vs SHA+ on one classification
// dataset at the repository's default scale, 4 hyperparameters (162
// configurations), 20 epochs, one evaluation goroutine.
const (
	shaDataset = "credit2023"
	shaScale   = 0.35
	shaHPs     = 4
	shaConfigs = 162
	shaEpochs  = 20
)

// shaCell is the cell's fixed input: data, space and base MLP settings.
type shaCell struct {
	train, test *dataset.Dataset
	space       *search.Space
	base        nn.Config
}

func newSHACell(dataSeed uint64) (*shaCell, error) {
	spec, err := dataset.SpecByName(shaDataset)
	if err != nil {
		return nil, err
	}
	train, test, err := dataset.Synthesize(spec.Scaled(shaScale), dataSeed)
	if err != nil {
		return nil, err
	}
	dataset.Standardize(train, test)
	space, err := search.TableIIISpace(shaHPs)
	if err != nil {
		return nil, err
	}
	base := nn.DefaultConfig()
	base.MaxIter = shaEpochs
	base.LearningRateInit = 0.02
	return &shaCell{train: train, test: test, space: space, base: base}, nil
}

// shaEvaluations is the evaluation count of successive halving with
// eta 2 over n configurations: every round evaluates the survivors.
func shaEvaluations(n int) int {
	total := 0
	for ; n > 1; n /= 2 {
		total += n
	}
	return total
}

// searchOutcome is what one search reports back to the workload loop.
type searchOutcome struct {
	wall        time.Duration
	evaluations int
	testScore   float64
}

// untracedSearch is one Table IV run through the public entry point.
func untracedSearch(cell *shaCell, enhanced bool, seed uint64) (searchOutcome, error) {
	variant := core.Vanilla
	if enhanced {
		variant = core.Enhanced
	}
	start := time.Now()
	out, err := core.RunCtx(context.Background(), cell.train, cell.test, core.Options{
		Method:     core.SHA,
		Variant:    variant,
		Space:      cell.space,
		Base:       cell.base,
		MaxConfigs: shaConfigs,
		Seed:       seed,
	})
	if err != nil {
		return searchOutcome{}, err
	}
	return searchOutcome{wall: time.Since(start), evaluations: out.Search.Evaluations, testScore: out.TestScore}, nil
}

// shaLayers accumulates the per-layer figures of traced searches.
type shaLayers struct {
	evalMS, evalSelfMS, foldsMS, scoreUS []float64
	groupingMS, refitMS, optSelfMS       []float64
	accounted                            []float64
	calls, trials                        int
	mallocs, bytes                       uint64
}

// tracedSearch repeats core.RunCtx's wiring step by step, timing the
// calls into each layer: grouping (hpo.EnhancedComponents), the
// evaluator handed to the method, the fold builder and scorer inside
// it, and the final refit. Its scores must equal untracedSearch's bit
// for bit.
func tracedSearch(cell *shaCell, enhanced bool, seed uint64, rec *recorder, trace string, acc *shaLayers) (searchOutcome, error) {
	runID := rec.newID()
	runStart := time.Now()
	root := rng.New(seed ^ 0xc0de)
	var comps hpo.Components
	if enhanced {
		t0 := time.Now()
		c, err := hpo.EnhancedComponents(cell.train, hpo.EnhancedOptions{}, root.Split(1))
		if err != nil {
			return searchOutcome{}, err
		}
		comps = c
		acc.groupingMS = append(acc.groupingMS, msOf(rec.record(trace, "grouping", runID, t0, time.Now()).dur()))
	} else {
		comps = hpo.VanillaComponents(0)
	}
	ev := hpo.NewCVEvaluator(cell.train, cell.base, comps)
	te := &tracedEvaluator{inner: ev, rec: rec, trace: trace, acc: acc}
	ev.Folds = &tracedFolds{inner: ev.Folds, te: te}
	searchID := rec.newID()
	te.parent = searchID
	comps.Scorer = &tracedScorer{inner: comps.Scorer, te: te}

	method, ok := hpo.LookupMethod("sha")
	if !ok {
		return searchOutcome{}, fmt.Errorf("sha is not registered")
	}
	searchStart := time.Now()
	res, err := method.Run(context.Background(), cell.space, te, comps, hpo.RunOptions{Seed: seed, MaxConfigs: shaConfigs})
	if err != nil {
		return searchOutcome{}, err
	}
	rec.add(span{ID: searchID, Parent: runID, Trace: trace, Name: "search", Start: searchStart, End: time.Now()})

	t0 := time.Now()
	model, err := ev.FitFull(res.Best, root.Split(3).Uint64())
	if err != nil {
		return searchOutcome{}, err
	}
	acc.refitMS = append(acc.refitMS, msOf(rec.record(trace, "refit", runID, t0, time.Now()).dur()))
	score := model.Score(cell.test)
	end := time.Now()
	rec.add(span{ID: runID, Trace: trace, Name: "run", Start: runStart, End: end})
	acc.trials += len(res.Trials)
	return searchOutcome{wall: end.Sub(runStart), evaluations: res.Evaluations, testScore: score}, nil
}

// tracedEvaluator times every evaluation the method asks for and the
// allocations it makes. The method runs one evaluation goroutine, so
// MemStats deltas around a call belong to that call alone.
type tracedEvaluator struct {
	inner  *hpo.CVEvaluator
	rec    *recorder
	trace  string
	parent int
	acc    *shaLayers

	evalID    int
	foldsTime time.Duration
}

func (t *tracedEvaluator) FullBudget() int { return t.inner.FullBudget() }

func (t *tracedEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	t.evalID = t.rec.newID()
	t.foldsTime = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	scores, err := t.inner.Evaluate(cfg, budget, r)
	end := time.Now()
	runtime.ReadMemStats(&after)
	t.rec.add(span{ID: t.evalID, Parent: t.parent, Trace: t.trace, Name: "evaluate", Start: start, End: end})
	d := end.Sub(start)
	t.acc.calls++
	t.acc.evalMS = append(t.acc.evalMS, msOf(d))
	t.acc.evalSelfMS = append(t.acc.evalSelfMS, msOf(d-t.foldsTime))
	t.acc.foldsMS = append(t.acc.foldsMS, msOf(t.foldsTime))
	t.acc.mallocs += after.Mallocs - before.Mallocs
	t.acc.bytes += after.TotalAlloc - before.TotalAlloc
	return scores, err
}

// tracedFolds times the fold builder inside an evaluation.
type tracedFolds struct {
	inner cv.Builder
	te    *tracedEvaluator
}

func (f *tracedFolds) Name() string { return f.inner.Name() }

func (f *tracedFolds) Folds(d *dataset.Dataset, g *grouping.Groups, budget, k int, r *rng.RNG) ([]cv.Fold, error) {
	start := time.Now()
	folds, err := f.inner.Folds(d, g, budget, k, r)
	end := time.Now()
	f.te.rec.record(f.te.trace, "folds", f.te.evalID, start, end)
	f.te.foldsTime += end.Sub(start)
	return folds, err
}

// tracedScorer times the aggregation of fold scores, which the method
// calls after each evaluation.
type tracedScorer struct {
	inner scoring.Scorer
	te    *tracedEvaluator
}

func (s *tracedScorer) Name() string { return s.inner.Name() }

func (s *tracedScorer) Score(foldScores []float64, gamma float64) float64 {
	start := time.Now()
	v := s.inner.Score(foldScores, gamma)
	end := time.Now()
	s.te.rec.record(s.te.trace, "score", s.te.parent, start, end)
	s.te.acc.scoreUS = append(s.te.acc.scoreUS, float64(end.Sub(start))/float64(time.Microsecond))
	return v
}

// runPaperSHA runs SHA and SHA+ searches in alternating order until the
// pass's time is up, always finishing a started pair.
func runPaperSHA(p pass) (*passResult, error) {
	res := newPassResult()
	acc := &shaLayers{}
	var shaS, plusS, allMS []float64
	var shaScores, plusScores []float64
	var atChance []string
	var setups []float64
	wantEvals := shaEvaluations(shaConfigs)
	deadline := time.Now().Add(p.dur)
	var busy time.Duration
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		order := []bool{false, true}
		if k%2 == 1 {
			order = []bool{true, false}
		}
		for _, enhanced := range order {
			// Every pair of searches draws its own dataset and search
			// seed from the workload seed, so a run's medians sample
			// many inputs rather than depend on one draw. Each search
			// loads its dataset afresh, as a Table IV run does, so
			// set-up is timed once per search across the run. It starts
			// from a collected heap, so its time does not depend on when
			// the previous search's garbage is swept.
			seed := p.seed*1000 + uint64(k) + 1
			runtime.GC()
			t0 := time.Now()
			cell, err := newSHACell(seed)
			if err != nil {
				return nil, fmt.Errorf("paper-sha set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			key := fmt.Sprintf("%s/seed%d", variantName(enhanced), seed)
			res.attempted++
			var out searchOutcome
			if p.rec != nil {
				out, err = tracedSearch(cell, enhanced, seed, p.rec, key, acc)
			} else {
				out, err = untracedSearch(cell, enhanced, seed)
			}
			if err != nil {
				res.failed++
				res.problem("%s: %v", key, err)
				continue
			}
			if out.evaluations != wantEvals {
				res.problem("%s: %d evaluations, want %d", key, out.evaluations, wantEvals)
			}
			if !(out.testScore >= 0 && out.testScore <= 1) {
				res.problem("%s: test accuracy %v is not in [0, 1]", key, out.testScore)
			}
			if out.testScore <= 0.5 {
				// A refit that lands at chance on the balanced classes
				// (seen with lbfgs + logistic); reported, not an error.
				atChance = append(atChance, key)
			}
			res.scores[key] = out.testScore
			busy += out.wall
			secs := out.wall.Seconds()
			allMS = append(allMS, secs*1000)
			if enhanced {
				plusS = append(plusS, secs)
				plusScores = append(plusScores, out.testScore)
			} else {
				shaS = append(shaS, secs)
				shaScores = append(shaScores, out.testScore)
			}
		}
	}

	res.e2e["setup_s"] = median(setups)
	res.e2e["sha_s"] = median(shaS)
	res.e2e["sha_plus_s"] = median(plusS)
	res.e2e["job_p50_ms"] = median(allMS)
	res.e2e["jobs_per_s"] = float64(len(allMS)) / busy.Seconds()
	res.detail["unit_of_work"] = "one search through core.RunCtx, including the final refit"
	res.detail["searches"] = map[string]int{"sha": len(shaS), "sha_plus": len(plusS)}
	res.detail["sha_test_score_median"] = median(shaScores)
	res.detail["sha_plus_test_score_median"] = median(plusScores)
	res.detail["sha_plus_over_sha_time"] = median(plusS) / median(shaS)
	res.detail["refits_at_chance"] = atChance

	if p.rec != nil {
		spans := p.rec.all()
		self := selfTimes(spans)
		for _, s := range spans {
			switch s.Name {
			case "search":
				acc.optSelfMS = append(acc.optSelfMS, msOf(self[s.ID]))
			case "run":
				// What the timed layers explain of the run: everything
				// but the run span's own self time.
				acc.accounted = append(acc.accounted, 1-float64(self[s.ID])/float64(s.dur()))
			}
		}
		l := res.layer
		l["evals_per_job"] = float64(acc.calls) / float64(len(allMS))
		l["eval_ms_p50"] = median(acc.evalMS)
		l["optimizer_self_ms"] = median(acc.optSelfMS)
		l["eval_calls_per_trial"] = float64(acc.calls) / float64(acc.trials)
		l["folds_ms_per_eval"] = mean(acc.foldsMS)
		l["grouping_ms"] = median(acc.groupingMS)
		l["score_us_per_call"] = mean(acc.scoreUS)
		l["eval_self_ms"] = median(acc.evalSelfMS)
		l["refit_ms"] = median(acc.refitMS)
		l["allocs_per_eval"] = float64(acc.mallocs) / float64(acc.calls)
		l["bytes_per_eval"] = float64(acc.bytes) / float64(acc.calls)
		l["wall_accounted_share"] = median(acc.accounted)
		for _, a := range acc.accounted {
			if a < 0.98 {
				res.problem("traced layers explain only %.1f%% of a search's wall time", 100*a)
			}
		}
	}
	return res, nil
}

func variantName(enhanced bool) string {
	if enhanced {
		return "sha_plus"
	}
	return "sha"
}
