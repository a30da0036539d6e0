package fedzkt

import (
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

func randLogits(seed uint64, n, d int, scale float64) *tensor.Tensor {
	t := tensor.New(n, d)
	tensor.FillNormal(t, 0, scale, tensor.NewRand(seed))
	return t
}

func TestParseLoss(t *testing.T) {
	for s, want := range map[string]LossKind{"sl": LossSL, "kl": LossKL, "l1": LossL1} {
		got, err := ParseLoss(s)
		if err != nil || got != want {
			t.Fatalf("ParseLoss(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseLoss("mse"); err == nil {
		t.Fatal("want error for unknown loss")
	}
}

func TestDisagreementZeroAtAgreement(t *testing.T) {
	// One teacher with identical logits: SL and KL must vanish; L1 must
	// vanish too.
	u := randLogits(1, 3, 5, 2)
	for _, kind := range []LossKind{LossSL, LossKL, LossL1} {
		student := ag.Const(u.Clone())
		teacher := ag.Const(u.Clone())
		loss := Disagreement(kind, student, teachers(teacher)).Value().Data()[0]
		if math.Abs(loss) > 1e-9 {
			t.Fatalf("%v loss at perfect agreement = %g, want 0", kind, loss)
		}
	}
}

func teachers(vs ...*ag.Variable) []*ag.Variable { return vs }

func TestDisagreementPositiveAndOrdering(t *testing.T) {
	u := randLogits(2, 4, 6, 1)
	v1 := randLogits(3, 4, 6, 1)
	v2 := randLogits(4, 4, 6, 1)
	for _, kind := range []LossKind{LossSL, LossKL, LossL1} {
		loss := Disagreement(kind, ag.Const(u), teachers(ag.Const(v1), ag.Const(v2))).Value().Data()[0]
		if loss <= 0 {
			t.Fatalf("%v loss = %g, want > 0 under disagreement", kind, loss)
		}
	}
}

func TestSLBoundedByTwo(t *testing.T) {
	// ‖p − q‖₁ between two probability vectors is at most 2, so the SL
	// loss (batch mean) must be in [0, 2] regardless of logit magnitude.
	u := randLogits(5, 8, 10, 50)
	v := randLogits(6, 8, 10, 50)
	loss := Disagreement(LossSL, ag.Const(u), teachers(ag.Const(v))).Value().Data()[0]
	if loss < 0 || loss > 2 {
		t.Fatalf("SL loss %g outside [0,2]", loss)
	}
}

func TestDisagreementGradcheck(t *testing.T) {
	// Analytic gradients w.r.t. the student logits AND a shared input
	// through both networks must match finite differences; the adversarial
	// generator update depends on the input path being exact.
	for _, kind := range []LossKind{LossSL, LossKL, LossL1} {
		u := ag.Param(randLogits(7, 3, 4, 1))
		v := ag.Param(randLogits(8, 3, 4, 1))
		build := func() *ag.Variable { return Disagreement(kind, u, teachers(v)) }
		ag.Backward(build())
		for name, leaf := range map[string]*ag.Variable{"student": u, "teacher": v} {
			analytic := leaf.Grad()
			if analytic == nil {
				t.Fatalf("%v: %s has no grad", kind, name)
			}
			numeric := numGrad(leaf.Value(), func() float64 { return build().Value().Data()[0] })
			if d := tensor.MaxAbsDiff(analytic, numeric); d > 2e-5 {
				t.Errorf("%v: %s gradient off by %g", kind, name, d)
			}
		}
	}
}

// numGrad is a local finite-difference helper (losses are piecewise smooth;
// seeds keep values away from kinks with overwhelming probability).
func numGrad(x *tensor.Tensor, f func() float64) *tensor.Tensor {
	const h = 1e-6
	g := tensor.New(x.Shape()...)
	d := x.Data()
	for i := range d {
		orig := d[i]
		d[i] = orig + h
		fp := f()
		d[i] = orig - h
		fm := f()
		d[i] = orig
		g.Data()[i] = (fp - fm) / (2 * h)
	}
	return g
}

// TestHypothesesGradientOrdering verifies the paper's Hypotheses 1 and 2:
// when the student converges to the teacher ensemble, the input-gradient
// norms order as ‖∇ₓL_KL‖ ≤ ‖∇ₓL_SL‖ ≤ ‖∇ₓL_ℓ1‖.
func TestHypothesesGradientOrdering(t *testing.T) {
	norms := map[LossKind]float64{}
	trials := 0
	wins := map[string]int{}
	for seed := uint64(0); seed < 20; seed++ {
		rng := tensor.NewRand(1000 + seed)
		// Shared input through two linear "networks" that have converged
		// to each other up to a small perturbation δ.
		const n, din, dout = 2, 6, 5
		w := tensor.New(dout, din)
		tensor.FillNormal(w, 0, 1, rng)
		wTeacher := w.Clone()
		pert := tensor.New(dout, din)
		tensor.FillNormal(pert, 0, 0.01, rng) // near convergence
		tensor.AccumInto(wTeacher, pert)

		for _, kind := range []LossKind{LossKL, LossSL, LossL1} {
			xt := tensor.New(n, din)
			tensor.FillNormal(xt, 0, 1, tensor.NewRand(7777+seed))
			x := ag.Param(xt)
			student := ag.Linear(x, ag.Const(w), nil)
			teacher := ag.Linear(x, ag.Const(wTeacher), nil)
			ag.Backward(Disagreement(kind, student, teachers(teacher)))
			norms[kind] = tensor.Norm2(x.Grad())
		}
		trials++
		if norms[LossKL] <= norms[LossSL] {
			wins["kl<=sl"]++
		}
		if norms[LossSL] <= norms[LossL1] {
			wins["sl<=l1"]++
		}
	}
	// The hypotheses hold in the convergent regime; allow a small number
	// of random-geometry exceptions.
	if wins["kl<=sl"] < trials*8/10 {
		t.Fatalf("Hypothesis 1 violated too often: %d/%d", wins["kl<=sl"], trials)
	}
	if wins["sl<=l1"] < trials*8/10 {
		t.Fatalf("Hypothesis 2 violated too often: %d/%d", wins["sl<=l1"], trials)
	}
}

// TestDistillKL: the knowledge-transfer loss of Eq. 8 is 0 for a
// student identical to the teacher, positive for another one, has the
// numeric gradient, and one DistillTargets shared by several students
// gives each the bits a fresh one would.
func TestDistillKL(t *testing.T) {
	logits := randLogits(9, 4, 5, 1)
	probs := ag.SoftmaxRowsIn(ag.NewArena(), logits)
	targets := NewDistillTargetsIn(tensor.NewArena(), probs)
	if same := targets.Loss(ag.Const(logits.Clone())).Value().Data()[0]; math.Abs(same) > 1e-9 {
		t.Fatalf("KL(self) = %g, want 0", same)
	}
	other := randLogits(10, 4, 5, 1)
	if diff := targets.Loss(ag.Const(other)).Value().Data()[0]; diff <= 0 {
		t.Fatalf("KL = %g, want > 0", diff)
	}
	s := ag.Param(other.Clone())
	build := func() *ag.Variable { return targets.Loss(s) }
	ag.Backward(build())
	numeric := numGrad(s.Value(), func() float64 { return build().Value().Data()[0] })
	if d := tensor.MaxAbsDiff(s.Grad(), numeric); d > 2e-5 {
		t.Fatalf("KL gradient off by %g", d)
	}
	for seed := uint64(33); seed < 36; seed++ {
		student := randLogits(seed, 4, 5, 1)
		want := NewDistillTargetsIn(tensor.NewArena(), probs).Loss(ag.Const(student)).Value().Data()[0]
		if got := targets.Loss(ag.Const(student)).Value().Data()[0]; got != want {
			t.Fatalf("seed %d: shared targets give %g, fresh ones %g", seed, got, want)
		}
	}
}

// TestDisagreementEnsembleGradcheck: with more than one teacher the
// ensemble mean must pass the right share of the gradient to the student
// and to every teacher (the path the generator update differentiates).
func TestDisagreementEnsembleGradcheck(t *testing.T) {
	for _, kind := range []LossKind{LossSL, LossKL, LossL1} {
		u := ag.Param(randLogits(27, 3, 4, 1))
		v1 := ag.Param(randLogits(28, 3, 4, 1))
		v2 := ag.Param(randLogits(29, 3, 4, 1))
		build := func() *ag.Variable { return Disagreement(kind, u, teachers(v1, v2)) }
		ag.Backward(build())
		for name, leaf := range map[string]*ag.Variable{"student": u, "teacher1": v1, "teacher2": v2} {
			analytic := leaf.Grad()
			if analytic == nil {
				t.Fatalf("%v: %s has no grad", kind, name)
			}
			numeric := numGrad(leaf.Value(), func() float64 { return build().Value().Data()[0] })
			if d := tensor.MaxAbsDiff(analytic, numeric); d > 2e-5 {
				t.Errorf("%v: %s gradient off by %g", kind, name, d)
			}
		}
	}
}

func TestDisagreementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with no teachers")
		}
	}()
	Disagreement(LossSL, ag.Const(tensor.New(1, 2)), nil)
}
