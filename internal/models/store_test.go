package models

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"testing"

	"iprune/internal/tile"
)

// savedHAR returns a saved HAR snapshot with masks installed and decoded
// back into its on-disk form.
func savedHAR(t testing.TB) snapshot {
	t.Helper()
	net := HAR(1)
	tile.InstallMasks(net, tile.SpecsFromNetwork(net, tile.DefaultConfig()))
	path := filepath.Join(t.TempDir(), "har.model")
	if err := Save(path, net, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func encode(t testing.TB, snap snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A mask whose block geometry does not fit its layer's weight matrix is
// an error, not a panic in nn.NewBlockMask.
func TestLoadMalformedMask(t *testing.T) {
	snap := savedHAR(t)
	good := snap.Masks[0]
	for _, bad := range [][2]int{{0, 0}, {3, 0}, {-1, 3}, {math.MaxInt, 1}, {1, math.MaxInt}, {13, 1}} {
		snap.Masks[0].BM, snap.Masks[0].BK = bad[0], bad[1]
		if _, err := decode(bytes.NewReader(encode(t, snap)), "bad.model"); err == nil {
			t.Errorf("BM, BK = %d, %d: decode accepted the mask", bad[0], bad[1])
		}
	}
	snap.Masks[0] = good
	if _, err := decode(bytes.NewReader(encode(t, snap)), "har.model"); err != nil {
		t.Errorf("a saved HAR snapshot: %v", err)
	}
}

// FuzzLoad decodes arbitrary bytes as a model file: decode returns a
// network or an error and never panics.
func FuzzLoad(f *testing.F) {
	snap := savedHAR(f)
	f.Add(encode(f, snap))
	snap.Masks[0].BM, snap.Masks[0].BK = 0, 0
	f.Add(encode(f, snap))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := decode(bytes.NewReader(data), "fuzz.model")
		if (net == nil) == (err == nil) {
			t.Fatalf("decode returned network %v and error %v", net != nil, err)
		}
	})
}
