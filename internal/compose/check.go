package compose

import "mix/internal/xmas"

// checkPlan verifies a composed plan in debug mode (the full static
// verifier, nested-schema consistency and all). Composition splices a view
// plan under a query plan with fresh-variable renaming; the gate catches a
// splice that breaks a partition schema at the splice, not later. Outside
// debug mode the rewriter validates the plan on entry and engine.Compile
// verifies what it compiles, so the plan is not checked here too.
func checkPlan(plan xmas.Op) error {
	if xmas.DebugEnabled() {
		return xmas.Verify(plan)
	}
	return nil
}
