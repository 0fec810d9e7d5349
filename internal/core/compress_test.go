package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
)

func TestCompressedRoundTrip(t *testing.T) {
	m := testModel()
	calib := testCalib(6)
	res, err := Quantize(m, calib, DefaultOptions(0.75))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCompressed(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruction matches the quantized model to float32 precision.
	want := res.Model.Params()
	have := got.Params()
	for i := range want {
		for j := range want[i].W.Data {
			a, b := want[i].W.Data[j], have[i].W.Data[j]
			if math.Abs(a-b) > 1e-4*(1+math.Abs(a)) {
				t.Fatalf("%s[%d]: %v vs %v", want[i].Name, j, a, b)
			}
		}
	}
}

func TestCompressedSmallerThanFP(t *testing.T) {
	m := testModel()
	calib := testCalib(6)
	res, err := Quantize(m, calib, DefaultOptions(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var compressed, full bytes.Buffer
	if err := res.WriteCompressed(&compressed); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&full); err != nil {
		t.Fatal(err)
	}
	ratio := float64(full.Len()) / float64(compressed.Len())
	// float64 → 4-bit codes + fp32 metadata: at least 4x smaller even at
	// tiny-model group overhead.
	if ratio < 4 {
		t.Fatalf("compression ratio only %.2fx (%d -> %d bytes)", ratio, full.Len(), compressed.Len())
	}
}

func TestCompressed2BitSmallerThan4Bit(t *testing.T) {
	m := testModel()
	calib := testCalib(6)
	size := func(ratio float64) int {
		res, err := Quantize(m, calib, DefaultOptions(ratio))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCompressed(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	if s2, s4 := size(0.0), size(1.0); s2 >= s4 {
		t.Fatalf("2-bit checkpoint (%d bytes) not smaller than 4-bit (%d bytes)", s2, s4)
	}
}

func TestReadCompressedRejectsGarbage(t *testing.T) {
	if _, err := ReadCompressed(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestReadCompressedRejectsNonFinite: a checkpoint is untrusted input, and
// one NaN or infinite group parameter or full-precision value makes every
// logit NaN with a nil error, so both load paths must refuse it and name
// the layer or tensor.
func TestReadCompressedRejectsNonFinite(t *testing.T) {
	res, err := Quantize(testModel(), testCalib(6), DefaultOptions(0.75))
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := res.WriteCompressed(&good); err != nil {
		t.Fatal(err)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	cases := []struct {
		name    string
		corrupt func(cf *compressedFile) (named string)
	}{
		{"NaN scale", func(cf *compressedFile) string { cf.Layers[0].Scales[0] = nan; return cf.Layers[0].Name }},
		{"+Inf scale", func(cf *compressedFile) string { cf.Layers[0].Scales[0] = inf; return cf.Layers[0].Name }},
		{"-Inf zero", func(cf *compressedFile) string { cf.Layers[1].Zeros[0] = -inf; return cf.Layers[1].Name }},
		{"NaN embedding value", func(cf *compressedFile) string { cf.FPTensors[0][3] = nan; return cf.FPNames[0] }},
		{"+Inf embedding value", func(cf *compressedFile) string { cf.FPTensors[0][3] = inf; return cf.FPNames[0] }},
	}
	for _, tc := range cases {
		var cf compressedFile
		if err := gob.NewDecoder(bytes.NewReader(good.Bytes())).Decode(&cf); err != nil {
			t.Fatal(err)
		}
		named := tc.corrupt(&cf)
		var bad bytes.Buffer
		if err := gob.NewEncoder(&bad).Encode(cf); err != nil {
			t.Fatal(err)
		}
		_, errFloat := ReadCompressed(bytes.NewReader(bad.Bytes()))
		_, errPacked := ReadCompressedPacked(bytes.NewReader(bad.Bytes()))
		for path, err := range map[string]error{"ReadCompressed": errFloat, "ReadCompressedPacked": errPacked} {
			if err == nil || !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), named) {
				t.Errorf("%s: %s returned %v, want a non-finite error naming %q", tc.name, path, err, named)
			}
		}
	}
	if _, err := ReadCompressedPacked(bytes.NewReader(good.Bytes())); err != nil {
		t.Fatalf("uncorrupted checkpoint: %v", err)
	}
}

func TestCompressedQuantizedForwardMatches(t *testing.T) {
	m := testModel()
	calib := testCalib(6)
	res, err := Quantize(m, calib, DefaultOptions(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCompressed(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8}
	a := res.Model.Forward(ids)
	b := got.Forward(ids)
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > 1e-3 {
			t.Fatalf("logit %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}
