// Package dag models the execution runtimes Hive has used (paper §2, §5):
//
//   - MR mode reproduces MapReduce's defining costs: every pipeline breaker
//     (shuffle boundary) materializes its input to the distributed file
//     system and reads it back, and every stage pays container start-up.
//     This is the "Hive v1.2 on MapReduce-shaped plans" baseline of §7.1.
//   - Container mode is Tez: stages pipeline in memory, but each vertex
//     still pays YARN container allocation at start-up.
//   - LLAP mode is Tez + LLAP: fragments borrow persistent executors (no
//     start-up cost) and scans read through the LLAP cache.
package dag

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dfs"
	"repro/internal/exec"
	"repro/internal/llap"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// Mode selects the execution runtime.
type Mode int

// Runtime modes.
const (
	ModeMR Mode = iota
	ModeContainer
	ModeLLAP
)

func (m Mode) String() string {
	return [...]string{"mr", "container", "llap"}[m]
}

// DAG summarizes the task graph of a physical plan: one vertex per scan
// (map work) and one per pipeline breaker (reduce work), edges following
// data flow, mirroring Tez's vertex/edge model.
type DAG struct {
	Vertices int
	Breakers int // pipeline breakers = shuffle boundaries
}

// Analyze derives the DAG shape of an operator tree from what each operator
// says of its own stage (exec.Node). An operator that is not a Node, or is a
// placement (made after the shape is fixed), counts nothing.
func Analyze(op exec.Operator) DAG {
	d := DAG{}
	d.walk(op)
	if d.Vertices == 0 {
		d.Vertices = 1
	}
	return d
}

func (d *DAG) walk(op exec.Operator) {
	n, ok := op.(exec.Node)
	if !ok {
		return
	}
	stage := n.Stage()
	if stage&exec.StagePlaced != 0 {
		return
	}
	if stage&exec.StageVertex != 0 {
		d.Vertices++
	}
	if stage&exec.StageBreaker != 0 {
		d.Breakers++
	}
	for i := 0; ; i++ {
		c := n.Child(i)
		if c == nil {
			return
		}
		d.walk(*c)
	}
}

// Runner executes an operator tree under a runtime mode, charging the
// mode's characteristic costs.
type Runner struct {
	Mode Mode
	// ContainerLaunch is the simulated YARN container allocation cost
	// charged per DAG vertex in MR and Container modes (paper §5: LLAP
	// "avoids YARN containers allocation overhead at start-up").
	ContainerLaunch time.Duration
	// FS receives MR-mode intermediate materializations.
	FS *dfs.FS
	// ScratchDir is the DFS directory for MR spills.
	ScratchDir string
	// Daemons, in LLAP mode, is the persistent executor pool.
	Daemons *llap.Daemons
	// Ctx is the execution context. The planner options live there and are
	// read from it: Ctx.DOP (LLAP-mode fragments fan out across executor
	// slots morsel-style; MR and container modes stay serial, reproducing
	// the paper's single-threaded-per-task baselines), Ctx.TargetStripes
	// and Ctx.PropsPlanning. A nil Ctx runs serial with properties on.
	Ctx *exec.Context

	spillSeq     int
	parallelized bool
}

// Prepare instruments the operator tree for the runner's mode and returns
// the tree to execute plus its DAG shape. The execution context inherits
// the runner's DFS and scratch directory when the caller has not set them,
// so memory-governed operator spills (exec mem.go) work in every mode —
// MR, container and LLAP plans all block on sorts, aggregates and join
// builds.
func (r *Runner) Prepare(op exec.Operator) (exec.Operator, DAG) {
	if r.Ctx != nil {
		if r.Ctx.FS == nil {
			r.Ctx.FS = r.FS
		}
		if r.Ctx.ScratchDir == "" {
			r.Ctx.ScratchDir = r.ScratchDir
		}
	}
	if r.Ctx == nil || r.Ctx.PropsPlanning {
		// Property pass before anything mode-specific: elided enforcers
		// never reach the DAG shape, the spill instrumentation or the
		// parallel planner.
		op = exec.ApplyProperties(op)
	}
	d := Analyze(op)
	if r.Mode == ModeMR && r.FS != nil {
		op = r.insertSpills(op)
	}
	if r.Mode == ModeLLAP && r.Ctx != nil {
		// Stripe-granular split enumeration happens inside Parallelize,
		// once, on the coordinator: every worker then steals (file, stripe
		// range) morsels and reads them through the shared per-directory
		// snapshot handle carried in the splits.
		op, r.parallelized = exec.Parallelize(op, r.Ctx, r.Ctx.DOP)
	}
	return op, d
}

// Run executes the prepared operator tree, charging start-up costs, and
// returns all result rows.
func (r *Runner) Run(op exec.Operator, d DAG) ([][]types.Datum, error) {
	switch r.Mode {
	case ModeMR:
		// Each stage (vertex) pays container allocation, and stages of an
		// MR job run serially per wave.
		time.Sleep(time.Duration(d.Vertices) * r.ContainerLaunch)
	case ModeContainer:
		// Tez reuses a container per vertex but still allocates at start.
		time.Sleep(time.Duration(d.Vertices) * r.ContainerLaunch / 2)
	case ModeLLAP:
		if r.Daemons != nil {
			// When Prepare actually parallelized the plan, the fragments
			// run as one coordinated pipeline: admission takes a single
			// executor and the parallel operators borrow more as they run
			// (TryAcquire), so a wide DAG cannot starve its own workers.
			// Plans that stayed serial keep the one-executor-per-fragment
			// accounting.
			n := d.Vertices
			if r.parallelized {
				n = 1
			}
			release := r.Daemons.Acquire(n)
			defer release()
		}
	}
	// Drain with cancellation: the exec context's GoCtx (session close,
	// hive.query.timeout) stops the pipeline between batches.
	rows, err := exec.DrainContext(r.Ctx, op)
	if r.Ctx != nil {
		// Shared spools outlive any single consumer's Close (a join build
		// side closes before the probe replays); reclaim them now that the
		// whole tree has closed.
		r.Ctx.CloseSpools()
	}
	return rows, err
}

// insertSpills wraps every pipeline breaker's inputs with a DFS
// materialization, reproducing MapReduce's stage-by-stage execution.
func (r *Runner) insertSpills(op exec.Operator) exec.Operator {
	n, ok := op.(exec.Node)
	breaker := ok && n.Stage()&exec.StageBreaker != 0
	exec.RewriteInputs(op, func(in exec.Operator) exec.Operator {
		in = r.insertSpills(in)
		if breaker {
			in = r.spill(in)
		}
		return in
	})
	return op
}

func (r *Runner) spill(in exec.Operator) exec.Operator {
	r.spillSeq++
	return &SpillExchangeOp{
		Input: in,
		FS:    r.FS,
		Path:  fmt.Sprintf("%s/spill_%05d", r.ScratchDir, r.spillSeq),
	}
}

// SpillExchangeOp materializes its input to the distributed file system and
// reads it back before emitting — the MapReduce inter-job handoff.
type SpillExchangeOp struct {
	Input exec.Operator
	FS    *dfs.FS
	Path  string

	rows    [][]types.Datum
	done    bool
	emitted int
	gen     int
}

// Types implements exec.Operator.
func (s *SpillExchangeOp) Types() []types.T { return s.Input.Types() }

// Open implements exec.Operator.
func (s *SpillExchangeOp) Open() error {
	s.rows, s.done, s.emitted = nil, false, 0
	return s.Input.Open()
}

func (s *SpillExchangeOp) materialize() error {
	var rows [][]types.Datum
	for {
		b, err := s.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(i))
		}
	}
	// Serialize through the DFS: the write and read-back charge the
	// simulated storage costs that dominate MapReduce stage boundaries.
	data := spill.EncodeRows(rows)
	s.gen++
	path := fmt.Sprintf("%s_g%d", s.Path, s.gen)
	if err := s.FS.WriteFile(path, data); err != nil {
		return err
	}
	back, err := s.FS.ReadFile(path)
	if err != nil {
		return err
	}
	s.rows, err = spill.DecodeRows(back)
	return err
}

// Next implements exec.Operator.
func (s *SpillExchangeOp) Next() (*vector.Batch, error) {
	if !s.done {
		if err := s.materialize(); err != nil {
			return nil, err
		}
		s.done = true
	}
	if s.emitted >= len(s.rows) {
		return nil, nil
	}
	n := len(s.rows) - s.emitted
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	b := vector.NewBatch(s.Types(), n)
	for i := 0; i < n; i++ {
		for c, d := range s.rows[s.emitted+i] {
			b.Cols[c].Set(i, d)
		}
	}
	b.N = n
	s.emitted += n
	return b, nil
}

// Close implements exec.Operator.
func (s *SpillExchangeOp) Close() error {
	s.rows = nil
	return s.Input.Close()
}

// Child implements exec.Node.
func (s *SpillExchangeOp) Child(i int) *exec.Operator {
	if i == 0 {
		return &s.Input
	}
	return nil
}

// Describe implements exec.Node.
func (s *SpillExchangeOp) Describe(b *strings.Builder) { b.WriteString("SpillExchange") }

// Stage implements exec.Node: the handoff is not itself a breaker — it sits
// on a breaker's input, placed there after the DAG shape was taken.
func (s *SpillExchangeOp) Stage() exec.Stage { return exec.StagePlaced }
