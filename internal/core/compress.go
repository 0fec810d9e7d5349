package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/model"
	"repro/internal/quant"
)

// The compressed checkpoint is the on-disk artifact an edge deployment
// would ship: quantizable layers are stored as bit-packed integer codes
// plus float32 group parameters, and the remaining full-precision tensors
// (embedding, norms, head) as float32. For a 4-bit model this is ~14x
// smaller than the float64 training checkpoint; 2/4-bit mixed models shrink
// further.
//
// Codes are packed per row at byte-aligned offsets (quant.PackedMatrix's
// stream layout), so mixed-precision RowBits matrices serialize losslessly
// — a single uniform-width stream would silently truncate the wider rows —
// and the packed load path can adopt the stream without re-packing.

// compressedLayer is the serialized form of one quantized weight matrix.
type compressedLayer struct {
	Name      string
	Rows      int
	Cols      int
	GroupSize int
	Bits      int
	// RowBits overrides Bits per row for mixed-precision matrices (nil for
	// uniform width).
	RowBits []int
	// Packed holds the concatenated per-row byte-aligned code streams.
	Packed []byte
	Scales []float32
	Zeros  []float32
}

// compressedFile is the gob payload of a compressed checkpoint.
type compressedFile struct {
	Cfg    model.Config
	Layers []compressedLayer
	// FPNames/FPTensors carry the non-quantized parameters as float32.
	FPNames   []string
	FPTensors [][]float32
}

// WriteCompressed serializes the quantized model in packed form.
func (r *Result) WriteCompressed(w io.Writer) error {
	if len(r.Quantized) != len(r.Layers) {
		return fmt.Errorf("core: result has %d quantized matrices for %d layers", len(r.Quantized), len(r.Layers))
	}
	cf := compressedFile{Cfg: r.Model.Cfg}
	for i, qm := range r.Quantized {
		pm, err := quant.PackMatrix(qm)
		if err != nil {
			return fmt.Errorf("core: pack layer %s: %w", r.Layers[i].Name, err)
		}
		cl := compressedLayer{
			Name: r.Layers[i].Name, Rows: qm.Rows, Cols: qm.Cols,
			GroupSize: qm.GroupSize, Bits: qm.Bits, RowBits: pm.RowBits,
			Packed: pm.Data,
		}
		for _, p := range qm.Params {
			cl.Scales = append(cl.Scales, float32(p.Scale))
			cl.Zeros = append(cl.Zeros, float32(p.Zero))
		}
		cf.Layers = append(cf.Layers, cl)
	}
	quantizable := map[string]bool{}
	for _, ref := range r.Model.QuantizableLayers() {
		quantizable[ref.Linear.P.Name] = true
	}
	for _, p := range r.Model.Params() {
		if quantizable[p.Name] {
			continue
		}
		t := make([]float32, len(p.W.Data))
		for j, v := range p.W.Data {
			t[j] = float32(v)
		}
		cf.FPNames = append(cf.FPNames, p.Name)
		cf.FPTensors = append(cf.FPTensors, t)
	}
	return gob.NewEncoder(w).Encode(cf)
}

// WriteCompressedFile writes the compressed checkpoint to path.
func (r *Result) WriteCompressedFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteCompressed(f); err != nil {
		return err
	}
	return f.Close()
}

// readCompressedParts decodes a compressed checkpoint into a model whose
// full-precision tensors are loaded (quantizable projections left at their
// construction values) plus the packed form of every quantizable layer, in
// QuantizableLayers order. Both read paths build on it.
func readCompressedParts(rd io.Reader) (*model.Model, []*quant.PackedMatrix, error) {
	var cf compressedFile
	if err := gob.NewDecoder(rd).Decode(&cf); err != nil {
		return nil, nil, fmt.Errorf("core: decode compressed checkpoint: %w", err)
	}
	if err := cf.Cfg.Validate(); err != nil {
		return nil, nil, err
	}
	m := model.New(cf.Cfg, 0)

	layers := m.QuantizableLayers()
	if len(layers) != len(cf.Layers) {
		return nil, nil, fmt.Errorf("core: checkpoint has %d quantized layers, model has %d", len(cf.Layers), len(layers))
	}
	packed := make([]*quant.PackedMatrix, len(cf.Layers))
	for i, cl := range cf.Layers {
		ref := layers[i]
		if ref.Name() != cl.Name {
			return nil, nil, fmt.Errorf("core: layer %d is %q, expected %q", i, cl.Name, ref.Name())
		}
		if cl.Rows != ref.Linear.Out() || cl.Cols != ref.Linear.In() {
			return nil, nil, fmt.Errorf("core: layer %q shape %dx%d, expected %dx%d", cl.Name, cl.Rows, cl.Cols, ref.Linear.Out(), ref.Linear.In())
		}
		if len(cl.Scales) != len(cl.Zeros) {
			return nil, nil, fmt.Errorf("core: layer %q has %d scales, %d zeros", cl.Name, len(cl.Scales), len(cl.Zeros))
		}
		params := make([]quant.GroupParams, len(cl.Scales))
		for g := range cl.Scales {
			params[g] = quant.GroupParams{Scale: float64(cl.Scales[g]), Zero: float64(cl.Zeros[g])}
		}
		pm, err := quant.NewPackedFromStream(cl.Rows, cl.Cols, cl.GroupSize, cl.Bits, cl.RowBits, cl.Packed, params)
		if err != nil {
			return nil, nil, fmt.Errorf("core: layer %q: %w", cl.Name, err)
		}
		packed[i] = pm
	}

	fp := map[string][]float32{}
	for i, name := range cf.FPNames {
		fp[name] = cf.FPTensors[i]
	}
	quantizable := map[string]bool{}
	for _, ref := range layers {
		quantizable[ref.Linear.P.Name] = true
	}
	for _, p := range m.Params() {
		if quantizable[p.Name] {
			continue
		}
		t, ok := fp[p.Name]
		if !ok {
			return nil, nil, fmt.Errorf("core: checkpoint missing tensor %q", p.Name)
		}
		if len(t) != len(p.W.Data) {
			return nil, nil, fmt.Errorf("core: tensor %q has %d values, expected %d", p.Name, len(t), len(p.W.Data))
		}
		for j, v := range t {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, nil, fmt.Errorf("core: tensor %q has non-finite value %v at index %d", p.Name, v, j)
			}
			p.W.Data[j] = f
		}
	}
	return m, packed, nil
}

// ReadCompressed reconstructs a runnable float model from a compressed
// checkpoint. Weights are dequantized into float64 on load (group
// parameters were stored as float32, so reconstruction matches the
// quantized model to float32 precision — verified in tests). For serving
// from the compressed form without materializing float weights, use
// ReadCompressedPacked.
func ReadCompressed(rd io.Reader) (*model.Model, error) {
	m, packed, err := readCompressedParts(rd)
	if err != nil {
		return nil, err
	}
	layers := m.QuantizableLayers()
	for i, pm := range packed {
		layers[i].Linear.P.W.CopyFrom(pm.Dequantize())
	}
	return m, nil
}

// ReadCompressedFile reads a compressed checkpoint from path.
func ReadCompressedFile(path string) (*model.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCompressed(f)
}

// LoadModelFile resolves a checkpoint path the way the serving-side
// commands (aptq-eval, aptq-serve) do: with packed set, the file must be a
// compressed checkpoint and is loaded for packed execution (qm non-nil,
// m = qm.Model); otherwise a float checkpoint is tried first and the
// compressed (dequantize-on-load) format is the fallback. One shared
// helper keeps the two commands' resolution logic and error wording from
// drifting.
func LoadModelFile(path string, packed bool) (m *model.Model, qm *model.QuantizedModel, err error) {
	if packed {
		qm, err = ReadCompressedPackedFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("load packed: %w", err)
		}
		return qm.Model, qm, nil
	}
	m, err = model.LoadFile(path)
	if err != nil {
		var cerr error
		if m, cerr = ReadCompressedFile(path); cerr != nil {
			return nil, nil, fmt.Errorf("load: %v (as compressed checkpoint: %v)", err, cerr)
		}
	}
	return m, nil, nil
}

// ReadCompressedPacked reconstructs a packed-execution model from a
// compressed checkpoint: quantizable projections adopt the checkpoint's
// bit streams directly and compute with dequant-on-the-fly, so the
// quantized weights are never dequantized into resident float64 matrices.
// (Model construction transiently allocates the float skeleton of the
// quantizable projections before the swap discards it; steady-state
// residency is the packed streams plus the full-precision remainder.)
// This is the serving load path of the paper's edge-deployment story.
func ReadCompressedPacked(rd io.Reader) (*model.QuantizedModel, error) {
	m, packed, err := readCompressedParts(rd)
	if err != nil {
		return nil, err
	}
	return model.NewQuantizedModel(m, packed)
}

// ReadCompressedPackedFile reads a packed-execution model from path.
func ReadCompressedPackedFile(path string) (*model.QuantizedModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCompressedPacked(f)
}
