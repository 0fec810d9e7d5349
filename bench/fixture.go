package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/harness"
	"repro/internal/model"
)

// The pinned fixture: harness.Quick's pretrained nano-7B (300 steps) in a
// raw format of the benchmark's own, so it neither costs 22 s of training
// per run nor depends on model.Save's gob layout. Embedded, so the
// benchmark finds it from any working directory.
//
//	magic "APTQF64\n" | u32 tensors | tensors x (u32 rows, u32 cols) |
//	float64 data, little-endian, tensors in Params() order
//
//go:embed fixtures/nano7b-quick.f64
var fixtureBytes []byte

const (
	fixturePath  = "bench/fixtures/nano7b-quick.f64"
	fixtureMagic = "APTQF64\n"
)

// encodeFixture serialises m's parameters in the fixture format.
func encodeFixture(m *model.Model) []byte {
	params := m.Params()
	var buf bytes.Buffer
	buf.WriteString(fixtureMagic)
	var u32 [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(u32[:], uint32(v))
		buf.Write(u32[:])
	}
	put(len(params))
	for _, p := range params {
		put(p.W.Rows)
		put(p.W.Cols)
	}
	var u64 [8]byte
	for _, p := range params {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(u64[:], math.Float64bits(v))
			buf.Write(u64[:])
		}
	}
	return buf.Bytes()
}

// decodeFixture builds a nano-7B from fixture bytes. The tensor count and
// every tensor's shape must match model.New(model.Nano7B(), 0).Params();
// any mismatch (a changed architecture, a truncated file) is an error, not
// a silently different model.
func decodeFixture(b []byte) (*model.Model, error) {
	m := model.New(model.Nano7B(), 0)
	params := m.Params()
	if len(b) < len(fixtureMagic)+4 || string(b[:len(fixtureMagic)]) != fixtureMagic {
		return nil, fmt.Errorf("fixture: bad magic or short header (%d bytes)", len(b))
	}
	b = b[len(fixtureMagic):]
	if n := int(binary.LittleEndian.Uint32(b)); n != len(params) {
		return nil, fmt.Errorf("fixture: holds %d tensors, nano-7B has %d", n, len(params))
	}
	b = b[4:]
	if len(b) < 8*len(params) {
		return nil, fmt.Errorf("fixture: shape table truncated")
	}
	total := 0
	for i, p := range params {
		rows := int(binary.LittleEndian.Uint32(b[8*i:]))
		cols := int(binary.LittleEndian.Uint32(b[8*i+4:]))
		if rows != p.W.Rows || cols != p.W.Cols {
			return nil, fmt.Errorf("fixture: tensor %d (%s) is %dx%d, nano-7B wants %dx%d",
				i, p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		total += rows * cols
	}
	b = b[8*len(params):]
	if len(b) != 8*total {
		return nil, fmt.Errorf("fixture: %d data bytes, want %d", len(b), 8*total)
	}
	for _, p := range params {
		for j := range p.W.Data {
			p.W.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	return m, nil
}

// makeFixture retrains harness.Quick's nano-7B (~23 s) and writes the
// fixture, or with check proves the committed bytes are what training
// produces today.
func makeFixture(check bool) error {
	m := harness.NewEnv(harness.Quick).Model(model.Nano7B())
	got := encodeFixture(m)
	if check {
		if !bytes.Equal(got, fixtureBytes) {
			return fmt.Errorf("fixture: retrained weights differ from %s (%d vs %d bytes)",
				fixturePath, len(got), len(fixtureBytes))
		}
		fmt.Fprintf(os.Stderr, "fixture: %s is byte-identical to a fresh training run\n", fixturePath)
		return nil
	}
	if err := os.WriteFile(fixturePath, got, 0o644); err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	fmt.Fprintf(os.Stderr, "fixture: wrote %s (%d bytes)\n", fixturePath, len(got))
	return nil
}
