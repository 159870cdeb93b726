package hs2

import (
	"runtime"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
)

// plannerOptions is the configuration that shapes logical planning. The
// optimizer reads Options; fingerprint folds every field into the
// plan-cache key, so a SET that changes planner behavior gets a fresh
// compile instead of a stale template.
type plannerOptions struct {
	opt.Options
	v12       bool // hive.profile = 1.2
	mvRewrite bool // hive.materializedview.rewriting
}

// fingerprint renders the planner options as one character per field.
// TestPlannerFingerprintCoversOptions flips every field of the struct and
// fails when one does not reach the fingerprint.
func (p plannerOptions) fingerprint() string {
	bits := [...]bool{p.v12, p.JoinReorder, p.Semijoin, p.SharedWork, p.PruneCols, p.mvRewrite}
	var b [len(bits)]byte
	for i, on := range bits {
		b[i] = '0'
		if on {
			b[i] = '1'
		}
	}
	return string(b[:])
}

// queryOptions is every per-query configuration value, typed. A statement
// resolves it once (resolveOptions) and hands it down; no stage of the
// pipeline reads the string conf maps.
type queryOptions struct {
	planner     plannerOptions
	planCache   bool // hive.query.plan.cache.enabled
	resultCache bool // hive.query.results.cache.enabled

	mode dag.Mode // hive.execution.mode
	// llapIO routes scans through the daemon caches; elevator adds the
	// decoded-vector cache and async prefetch on top. Both imply LLAP mode.
	llapIO   bool
	elevator bool
	// dop is the intra-query parallelism LLAP fragments fan out to; MR and
	// container modes stay serial like the paper's baselines.
	dop           int
	targetStripes int  // hive.split.target.stripes
	props         bool // hive.planner.properties

	budget          int64         // hive.query.max.memory; 0 = unlimited
	timeout         time.Duration // hive.query.timeout; covers queue wait + run
	queueTimeout    time.Duration // hive.wm.queue.timeout.ms
	containerLaunch time.Duration // hive.container.launch.ms
}

// resolveOptions reads the knob registry defaults under the session
// overlay into a queryOptions. It is the one reader of every per-query
// hive.* key (hivelint's conf-knob-registry enforces that).
func (s *Session) resolveOptions() queryOptions {
	ms := func(key string) time.Duration { return time.Duration(s.confInt(key)) * time.Millisecond }
	o := queryOptions{
		planner: plannerOptions{
			Options: opt.Options{
				JoinReorder: s.confBool("hive.optimize.join.reorder"),
				Semijoin:    s.confBool("hive.optimize.semijoin"),
				SharedWork:  s.confBool("hive.optimize.sharedwork"),
				PruneCols:   s.confBool("hive.optimize.prunecols"),
			},
			v12:       s.Conf("hive.profile") == "1.2",
			mvRewrite: s.confBool("hive.materializedview.rewriting"),
		},
		planCache:       s.confBool("hive.query.plan.cache.enabled"),
		resultCache:     s.confBool("hive.query.results.cache.enabled"),
		mode:            dag.ModeLLAP,
		targetStripes:   int(s.confInt("hive.split.target.stripes")),
		props:           s.confBool("hive.planner.properties"),
		budget:          s.confInt("hive.query.max.memory"),
		timeout:         ms("hive.query.timeout"),
		queueTimeout:    ms("hive.wm.queue.timeout.ms"),
		containerLaunch: ms("hive.container.launch.ms"),
	}
	switch s.Conf("hive.execution.mode") {
	case "mr":
		o.mode = dag.ModeMR
	case "container":
		o.mode = dag.ModeContainer
	}
	if o.mode == dag.ModeLLAP {
		o.llapIO = s.confBool("hive.llap.enabled")
		o.elevator = o.llapIO && s.confBool("hive.llap.elevator") && s.srv.Decoded != nil
		if o.dop = int(s.confInt("hive.parallelism")); o.dop <= 0 {
			o.dop = runtime.NumCPU()
		}
	}
	return o
}
