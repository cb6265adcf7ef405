// Package client calls model inference entry points from outside the
// guarded ladder, which guardcall reports.
package client

import (
	"bytecard/internal/bn"
	"bytecard/internal/rbx"
	"bytecard/internal/sample"
)

func Direct(c *bn.Context, w [][]float64) float64 {
	return c.Prob(w) // want `bypasses core.Estimator's guarded ladder`
}

func DirectConj(c *bn.Context) (float64, error) {
	return c.SelectivityConj(nil) // want `bypasses core.Estimator's guarded ladder`
}

func DirectNDV(m *rbx.Model, p sample.Profile) float64 {
	return m.EstimateNDV(p) // want `bypasses core.Estimator's guarded ladder`
}

// Annotated raw calls document why the ladder is skipped.
func Annotated(c *bn.Context, w [][]float64) float64 {
	return c.Prob(w) //bytecard:directcall-ok fixture: calibration harness measures the raw model
}

// NoReason has an annotation but no justification.
func NoReason(c *bn.Context, w [][]float64) float64 {
	//bytecard:directcall-ok
	return c.Prob(w) // want `annotation needs a reason`
}

// Train-and-encode surfaces are not entry points; touching them is fine.
func Housekeeping(m *bn.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	_, err := m.Encode()
	return err
}
