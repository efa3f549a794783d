package nn

import (
	"fmt"

	"dnnjps/internal/tensor"
)

// ActFunc enumerates the supported activation functions.
type ActFunc int

const (
	ReLU ActFunc = iota
	ReLU6
	Sigmoid
	Tanh
)

func (a ActFunc) String() string {
	switch a {
	case ReLU:
		return "relu"
	case ReLU6:
		return "relu6"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("act(%d)", int(a))
	}
}

// elementwise is the shared shape logic of 1-input, shape-preserving
// layers.
type elementwise struct {
	LayerName    string
	flopsPerElem float64
}

func (l *elementwise) outputShape(inputs []tensor.Shape) (tensor.Shape, error) {
	in, err := one(l.LayerName, inputs)
	if err != nil {
		return nil, err
	}
	return in.Clone(), nil
}

func (l *elementwise) flops(inputs []tensor.Shape) float64 {
	in, err := one(l.LayerName, inputs)
	if err != nil {
		return 0
	}
	return l.flopsPerElem * float64(in.Elems())
}

// Activation applies a pointwise nonlinearity.
type Activation struct {
	elementwise
	Func ActFunc
}

// NewActivation builds an activation layer.
func NewActivation(name string, fn ActFunc) *Activation {
	per := 1.0
	if fn == Sigmoid || fn == Tanh {
		per = 4 // exp evaluation is several ops
	}
	return &Activation{elementwise{LayerName: name, flopsPerElem: per}, fn}
}

func (l *Activation) Name() string { return l.LayerName }
func (l *Activation) Kind() Kind   { return KindActivation }
func (l *Activation) OutputShape(inputs []tensor.Shape) (tensor.Shape, error) {
	return l.outputShape(inputs)
}
func (l *Activation) FLOPs(inputs []tensor.Shape) float64 { return l.flops(inputs) }
func (l *Activation) ParamCount([]tensor.Shape) int64     { return 0 }

// BatchNorm normalizes channels with learned scale and shift
// (inference-mode: folded mean/var).
type BatchNorm struct {
	elementwise
}

// NewBatchNorm builds a batch-normalization layer.
func NewBatchNorm(name string) *BatchNorm {
	return &BatchNorm{elementwise{LayerName: name, flopsPerElem: 2}}
}

func (l *BatchNorm) Name() string { return l.LayerName }
func (l *BatchNorm) Kind() Kind   { return KindBatchNorm }
func (l *BatchNorm) OutputShape(inputs []tensor.Shape) (tensor.Shape, error) {
	return l.outputShape(inputs)
}
func (l *BatchNorm) FLOPs(inputs []tensor.Shape) float64 { return l.flops(inputs) }
func (l *BatchNorm) ParamCount(inputs []tensor.Shape) int64 {
	in, err := chw(l.LayerName, inputs)
	if err != nil {
		return 0
	}
	return 2 * int64(in.C()) // scale + shift per channel
}

// LRN is AlexNet's local response normalization.
type LRN struct {
	elementwise
	Size int // normalization window across channels
}

// NewLRN builds a local response normalization layer.
func NewLRN(name string, size int) *LRN {
	return &LRN{elementwise{LayerName: name, flopsPerElem: 2 * float64(size)}, size}
}

func (l *LRN) Name() string { return l.LayerName }
func (l *LRN) Kind() Kind   { return KindLRN }
func (l *LRN) OutputShape(inputs []tensor.Shape) (tensor.Shape, error) {
	return l.outputShape(inputs)
}
func (l *LRN) FLOPs(inputs []tensor.Shape) float64 { return l.flops(inputs) }
func (l *LRN) ParamCount([]tensor.Shape) int64     { return 0 }

// Dropout is an inference-time no-op kept in graphs so layer indices
// match published architectures.
type Dropout struct {
	elementwise
	Rate float64
}

// NewDropout builds a dropout layer (identity at inference).
func NewDropout(name string, rate float64) *Dropout {
	return &Dropout{elementwise{LayerName: name, flopsPerElem: 0}, rate}
}

func (l *Dropout) Name() string { return l.LayerName }
func (l *Dropout) Kind() Kind   { return KindDropout }
func (l *Dropout) OutputShape(inputs []tensor.Shape) (tensor.Shape, error) {
	return l.outputShape(inputs)
}
func (l *Dropout) FLOPs(inputs []tensor.Shape) float64 { return l.flops(inputs) }
func (l *Dropout) ParamCount([]tensor.Shape) int64     { return 0 }

// Softmax normalizes a vector of logits into class probabilities.
type Softmax struct {
	elementwise
}

// NewSoftmax builds a softmax layer.
func NewSoftmax(name string) *Softmax {
	return &Softmax{elementwise{LayerName: name, flopsPerElem: 5}}
}

func (l *Softmax) Name() string { return l.LayerName }
func (l *Softmax) Kind() Kind   { return KindSoftmax }
func (l *Softmax) OutputShape(inputs []tensor.Shape) (tensor.Shape, error) {
	return l.outputShape(inputs)
}
func (l *Softmax) FLOPs(inputs []tensor.Shape) float64 { return l.flops(inputs) }
func (l *Softmax) ParamCount([]tensor.Shape) int64     { return 0 }
