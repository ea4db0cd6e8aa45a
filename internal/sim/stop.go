package sim

// A StopCond inspects the engine state and reports whether the run should
// stop. It is always checked once before the first step; how often it is
// checked afterwards depends on the engine mode (rls.EngineMode):
//
//   - direct: after every activation — the finest granularity, and the
//     only mode where activation-exact conditions are meaningful;
//   - jump (NewJumpEngine): after every jump-chain step, i.e. one whole
//     geometric block of null activations plus the move closing it.
//     Configuration conditions (UntilPerfect, UntilBalanced) see exactly
//     the move-time law; time or activation targets may overshoot by one
//     block — except UntilTime runs with Engine.SetHorizon set, whose
//     final block is clamped exactly at the horizon;
//   - sharded (Sharded, which takes a ShardedStop rather than a
//     StopCond): at epoch barriers for P > 1, after every activation for
//     P = 1.
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
