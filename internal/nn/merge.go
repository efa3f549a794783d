package nn

import (
	"fmt"

	"dnnjps/internal/tensor"
)

// Concat joins CHW inputs along the channel axis — the merge node of
// Inception modules and DenseNet-style blocks.
type Concat struct {
	LayerName string
}

func (l *Concat) Name() string { return l.LayerName }
func (l *Concat) Kind() Kind   { return KindConcat }

func (l *Concat) OutputShape(inputs []tensor.Shape) (tensor.Shape, error) {
	if len(inputs) < 1 {
		return nil, fmt.Errorf("nn: concat %q needs at least 1 input", l.LayerName)
	}
	first := inputs[0]
	if first.Rank() != 3 {
		return nil, fmt.Errorf("nn: concat %q expects CHW inputs, got %v", l.LayerName, first)
	}
	c := 0
	for i, in := range inputs {
		if in.Rank() != 3 {
			return nil, fmt.Errorf("nn: concat %q input %d is not CHW: %v", l.LayerName, i, in)
		}
		if in.H() != first.H() || in.W() != first.W() {
			return nil, fmt.Errorf("nn: concat %q input %d spatial %dx%d mismatches %dx%d",
				l.LayerName, i, in.H(), in.W(), first.H(), first.W())
		}
		c += in.C()
	}
	return tensor.NewCHW(c, first.H(), first.W()), nil
}

func (l *Concat) FLOPs(inputs []tensor.Shape) float64 {
	out, err := l.OutputShape(inputs)
	if err != nil {
		return 0
	}
	return float64(out.Elems()) // one copy per element
}

func (l *Concat) ParamCount([]tensor.Shape) int64 { return 0 }

// Add sums identically shaped inputs elementwise — the merge node of
// residual blocks.
type Add struct {
	LayerName string
}

func (l *Add) Name() string { return l.LayerName }
func (l *Add) Kind() Kind   { return KindAdd }

func (l *Add) OutputShape(inputs []tensor.Shape) (tensor.Shape, error) {
	if err := l.check(inputs); err != nil {
		return nil, err
	}
	return inputs[0].Clone(), nil
}

// check validates that there are at least two identically shaped
// inputs.
func (l *Add) check(inputs []tensor.Shape) error {
	if len(inputs) < 2 {
		return fmt.Errorf("nn: add %q needs at least 2 inputs, got %d", l.LayerName, len(inputs))
	}
	first := inputs[0]
	for i, in := range inputs[1:] {
		if !in.Equal(first) {
			return fmt.Errorf("nn: add %q input %d shape %v mismatches %v",
				l.LayerName, i+1, in, first)
		}
	}
	return nil
}

func (l *Add) FLOPs(inputs []tensor.Shape) float64 {
	if l.check(inputs) != nil {
		return 0
	}
	return float64(len(inputs)-1) * float64(inputs[0].Elems())
}

func (l *Add) ParamCount([]tensor.Shape) int64 { return 0 }
