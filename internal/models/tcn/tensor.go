package tcn

import "fmt"

// Tensor is a dense rank-2 array of float32 laid out channel-major:
// element (c, t) lives at Data[c*T+t]. A flattened vector is represented
// with T = 1.
type Tensor struct {
	C, T int
	Data []float32
}

// NewTensor allocates a zeroed C×T tensor.
func NewTensor(c, t int) *Tensor {
	if c < 0 || t < 0 {
		panic(fmt.Sprintf("tcn: invalid tensor shape %d×%d", c, t))
	}
	return &Tensor{C: c, T: t, Data: make([]float32, c*t)}
}

// Numel returns the number of elements.
func (x *Tensor) Numel() int { return len(x.Data) }

// Param is one learnable parameter array with its gradient accumulator.
type Param struct {
	Name  string
	Shape []int
	W     []float32
	G     []float32
}

// NewParam allocates a parameter with the given shape.
func NewParam(name string, shape ...int) *Param {
	n := 1
	for _, s := range shape {
		n *= s
	}
	return &Param{Name: name, Shape: shape, W: make([]float32, n), G: make([]float32, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// shadow returns a view of the parameter sharing W but with a private
// gradient buffer; worker clones use it for race-free accumulation.
func (p *Param) shadow() *Param {
	return &Param{Name: p.Name, Shape: p.Shape, W: p.W, G: make([]float32, len(p.G))}
}
