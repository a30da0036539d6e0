// Package fedzkt implements the paper's core contribution: federated
// learning via zero-shot knowledge transfer (Algorithms 1 and 3). The
// server adversarially trains a generator against the ensemble of
// collected on-device models and a global model, using the proposed
// Softmax-ℓ1 (SL) disagreement loss, then re-distils the global knowledge
// into every on-device architecture and ships back only each device's own
// parameters.
package fedzkt

import (
	"fmt"
	"math"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// LossKind selects the disagreement loss L(F, f_ens) used for zero-shot
// distillation (paper §III-B2).
type LossKind int

const (
	// LossSL is the paper's Softmax-ℓ1 loss (Eq. 5):
	// ‖softmax(u) − (1/K)Σ softmax(v_k)‖₁.
	LossSL LossKind = iota + 1
	// LossKL is the KL-divergence loss (Eq. 3): Σ F log(F / f_ens) on
	// softmax outputs. Prone to vanishing gradients near convergence.
	LossKL
	// LossL1 is the raw-logit ℓ1 loss (Eq. 4): ‖u − (1/K)Σ v_k‖₁. Prone
	// to large, unstable gradients under heterogeneous on-device models.
	LossL1
)

// String implements fmt.Stringer.
func (k LossKind) String() string {
	switch k {
	case LossSL:
		return "sl"
	case LossKL:
		return "kl"
	case LossL1:
		return "l1"
	default:
		return fmt.Sprintf("LossKind(%d)", int(k))
	}
}

// ParseLoss converts a string ("sl", "kl", "l1") to a LossKind.
func ParseLoss(s string) (LossKind, error) {
	switch s {
	case "sl":
		return LossSL, nil
	case "kl":
		return LossKL, nil
	case "l1":
		return LossL1, nil
	default:
		return 0, fmt.Errorf("fedzkt: unknown loss %q (want sl, kl or l1)", s)
	}
}

// Disagreement measures L(F(x), f_ens(x)) between the global model's
// logits u (N×D) and the on-device models' logits v_k, averaged over the
// batch, per the selected loss kind. Gradients flow into both the student
// and (through the teachers) the shared input, which is what the
// adversarial generator update differentiates.
func Disagreement(kind LossKind, student *ag.Variable, teachers []*ag.Variable) *ag.Variable {
	if len(teachers) == 0 {
		panic("fedzkt: Disagreement with no teachers")
	}
	n := float64(student.Shape()[0])
	invK := 1.0 / float64(len(teachers))
	switch kind {
	case LossSL:
		// ‖softmax(u) − mean_k softmax(v_k)‖₁, mean over batch.
		pbar := meanOf(teachers, invK, ag.Softmax)
		diff := ag.Sub(ag.Softmax(student), pbar)
		return ag.Scale(1/n, ag.SumAll(ag.Abs(diff)))
	case LossKL:
		// Σ P (log P − log Q) with P = softmax(u), Q = mean_k softmax(v_k).
		p := ag.Softmax(student)
		logP := ag.LogSoftmax(student)
		q := meanOf(teachers, invK, ag.Softmax)
		terms := ag.Mul(p, ag.Sub(logP, ag.Log(q)))
		return ag.Scale(1/n, ag.SumAll(terms))
	case LossL1:
		// ‖u − mean_k v_k‖₁ on raw logits, mean over batch.
		vbar := meanOf(teachers, invK, func(v *ag.Variable) *ag.Variable { return v })
		diff := ag.Sub(student, vbar)
		return ag.Scale(1/n, ag.SumAll(ag.Abs(diff)))
	default:
		panic(fmt.Sprintf("fedzkt: unknown loss kind %d", int(kind)))
	}
}

// meanOf averages f(teacher_k) over the ensemble.
func meanOf(teachers []*ag.Variable, invK float64, f func(*ag.Variable) *ag.Variable) *ag.Variable {
	acc := f(teachers[0])
	for _, t := range teachers[1:] {
		acc = ag.Add(acc, f(t))
	}
	return ag.Scale(invK, acc)
}

// DistillTargets holds the fixed teacher side of the knowledge-transfer
// loss of Eq. 8, precomputed once per generated batch: the teacher
// probabilities and their (floored) logs as shared constant leaves. One
// DistillTargets serves every student replica distilled on the batch —
// including concurrently, since constant leaves are read-only on both the
// forward and backward pass.
type DistillTargets struct {
	probs    *ag.Variable
	logProbs *ag.Variable
	n        float64
}

// NewDistillTargetsIn prepares the teacher side from the global model's
// softmax outputs (N×D), drawing the precomputed log tensor from the
// given arena. The wrapping Variables are deliberately plain constants
// carrying no arena, so the targets can be shared by concurrent
// per-worker tapes — each worker's ops pick the worker's own arena from
// the student operand instead. The caller must keep the arena un-reset
// until every worker is done with the iteration.
func NewDistillTargetsIn(a *tensor.Arena, teacherProbs *tensor.Tensor) *DistillTargets {
	if teacherProbs.Dims() != 2 {
		panic(fmt.Sprintf("fedzkt: distillation teacher probs must be 2-D, got %v", teacherProbs.Shape()))
	}
	logProbs := a.NewRaw(teacherProbs.Shape()...)
	tensor.ApplyInto(logProbs, teacherProbs, safeLog)
	return &DistillTargets{
		probs:    ag.Const(teacherProbs),
		logProbs: ag.Const(logProbs),
		n:        float64(teacherProbs.Dim(0)),
	}
}

// Loss evaluates KL(P_F ‖ P_student) against a student's logits, averaged
// over the batch. Only the student receives gradients.
func (t *DistillTargets) Loss(studentLogits *ag.Variable) *ag.Variable {
	terms := ag.Mul(t.probs, ag.Sub(t.logProbs, ag.LogSoftmax(studentLogits)))
	return ag.Scale(1/t.n, ag.SumAll(terms))
}

func safeLog(v float64) float64 {
	const floor = 1e-12
	if v < floor {
		v = floor
	}
	return math.Log(v)
}
