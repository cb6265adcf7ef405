package rbx_test

import (
	"math"
	"testing"
	"time"

	"bytecard/internal/core"
	"bytecard/internal/nn"
	"bytecard/internal/rbx"
	"bytecard/internal/sample"
)

// FuzzDecode feeds arbitrary bytes to the RBX wire format: they must either
// fail Decode or give a model the inference registry installs, whose NDV
// estimate through the base network and through every calibration lies in
// [sample NDV, population rows], without panicking.
func FuzzDecode(f *testing.F) {
	// Small networks keep the seeds short enough to mutate; the shipped
	// base network has the same wire format.
	base := nn.NewNetwork(1, rbx.FeatureDim, 4, 1)
	calibrated := map[string]*nn.Network{"t.a": nn.NewNetwork(2, rbx.FeatureDim, 2, 1)}
	// A calibration of the wrong input width encodes fine; Decode must
	// refuse it.
	wrongWidth := map[string]*nn.Network{"t.a": nn.NewNetwork(3, 5, 2, 1)}
	// Finite weights this large overflow the forward pass to NaN, which an
	// estimate must not pass on.
	overflow := nn.NewNetwork(1, rbx.FeatureDim, 4, 1)
	for i := range overflow.Layers {
		for j := range overflow.Layers[i].W {
			overflow.Layers[i].W[j] *= 1e300
		}
	}
	for _, m := range []*rbx.Model{{Net: base}, {Net: base, Calibrated: calibrated}, {Net: base, Calibrated: wrongWidth}, {Net: overflow}} {
		data, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("garbage"))
	freq := make([]float64, sample.ProfileLen)
	freq[0], freq[1], freq[sample.ProfileLen-1] = 40, 10, 1
	profile := sample.Profile{Freq: freq, SampleRows: 160, SampleNDV: 51, PopRows: 16000}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := rbx.Decode(data); err != nil {
			return
		}
		infer := core.NewInferenceEngine(core.Options{})
		if err := infer.LoadModel(core.Artifact{Name: "rbx", Kind: core.KindRBX, Timestamp: time.Unix(1, 0), Data: data}); err != nil {
			t.Fatalf("Decode accepted a model LoadModel rejects: %v", err)
		}
		m := infer.Models().RBX()
		check := func(column string, v float64) {
			if !(v >= profile.SampleNDV && v <= profile.PopRows) || math.IsNaN(v) {
				t.Fatalf("NDV estimate for %q = %v, outside [%v, %v]", column, v, profile.SampleNDV, profile.PopRows)
			}
		}
		check("", m.EstimateNDV(profile))
		for column := range m.Calibrated {
			check(column, m.EstimateNDVForColumn(column, profile))
		}
	})
}
