package sim

// Test-only bridge into the engine for the external sim_test package.

// RunCheckingOrder runs cfg with check called on every materialized
// round: maintained is the order the engine is about to place from, and
// fresh is a reference Sched.Order over the engine's active set at the
// same clock. It attaches its own decision sink (cfg.Decisions is
// replaced), whose materialized-round observations carry the engine's
// order buffer itself, while bulk spans and idle gaps carry other
// slices.
func RunCheckingOrder(cfg Config, check func(now float64, maintained, fresh []*Job)) (*Result, error) {
	chk := &orderChecker{check: check}
	cfg.Decisions = chk
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	chk.e = e
	return e.run()
}

type orderChecker struct {
	e     *engine
	check func(now float64, maintained, fresh []*Job)
}

func (c *orderChecker) ObserveDecision(o DecisionObservation) {
	if len(o.Order) == 0 || len(c.e.ordered) == 0 || &o.Order[0] != &c.e.ordered[0] {
		return
	}
	c.check(o.Start, o.Order, c.e.cfg.Sched.Order(c.e.active, o.Start))
}

func (c *orderChecker) FinishRun(*Result) {}
