package adapt

import "repro/internal/plan"

// Tap exposes the controller's delivery tap to the package's external tests.
func (c *Controller) Tap() *plan.Tap { return c.tap }
