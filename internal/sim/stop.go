package sim

// A StopCond inspects the engine state and reports whether the run should
// stop. It is always checked once before the first step; how often it is
// checked afterwards depends on the engine mode (rls.EngineMode):
//
//   - direct: after every activation — the finest granularity, and the
//     only mode where activation-exact conditions are meaningful;
//   - jump (NewJumpEngine): after every jump-chain step, i.e. one Exp
//     gap and the move closing it. Configuration conditions
//     (UntilPerfect, UntilBalanced) see exactly the move-time law; a time
//     target may overshoot by one gap — except UntilTime runs with
//     Engine.SetHorizon set, whose final gap is clamped exactly at the
//     horizon — and activation targets read the move-granular count of
//     Engine.Activations, which holds the untallied null mass as its
//     integer part until the run's closing Poisson draw;
//   - sharded (Sharded, which takes a ShardedStop rather than a
//     StopCond): at epoch barriers for P > 1, after every activation for
//     P = 1.
//
// The conditions below read only O(1) state (the configuration's min and
// max, the clock, the counters). A condition that reads an analysis
// statistic (Config.AboveBelow, OverloadedBalls, Potential) pays a scan
// of the load histogram, O(max − min), at every check.
type StopCond func(e *Engine) bool

// UntilPerfect stops at perfect balance (disc < 1), the paper's balancing
// time T.
func UntilPerfect() StopCond {
	return func(e *Engine) bool { return e.Cfg().IsPerfect() }
}

// UntilBalanced stops once the configuration is x-balanced (disc ≤ x);
// the phase experiments use it with x = O(ln n) and x = 1.
func UntilBalanced(x float64) StopCond {
	return func(e *Engine) bool { return e.Cfg().IsBalanced(x) }
}

// UntilTime stops once continuous time reaches t.
func UntilTime(t float64) StopCond {
	return func(e *Engine) bool { return e.Time() >= t }
}

// UntilActivations stops after the given number of activations.
func UntilActivations(k int64) StopCond {
	return func(e *Engine) bool { return e.Activations() >= k }
}
