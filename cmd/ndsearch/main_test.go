package main

import (
	"testing"

	"ndsearch/internal/figures"
)

func TestValidateFlags(t *testing.T) {
	def := figures.DefaultScale()
	cases := []struct {
		name             string
		n, batch, rerank int
		ok               bool
	}{
		{"defaults", def.N, def.Batch, 0, true},
		{"smallest", 1, 1, 0, true},
		{"rerank", 400, 16, 64, true},
		{"zero n", 0, 16, 0, false},
		{"negative n", -1, 16, 0, false},
		{"zero batch", 400, 0, 0, false},
		{"negative batch", 400, -8, 0, false},
		{"negative rerank", 400, 16, -1, false},
	}
	for _, c := range cases {
		err := validateFlags(c.n, c.batch, c.rerank)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateFlags(%d, %d, %d) = %v, want ok=%v",
				c.name, c.n, c.batch, c.rerank, err, c.ok)
		}
	}
}
