package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"fits"
	"fits/internal/pool"
	"fits/internal/synth"
)

// deriveSeed maps the workload seed onto the seed of one generated input:
// FNV-1a over "fitsbench|<seed>|<stream>|<i>|<j>", top bit cleared. Every
// input of every workload is derived this way, so one seed fixes them all.
func deriveSeed(seed int64, stream string, i, j int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fitsbench|%d|%s|%d|%d", seed, stream, i, j)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// image is one generated firmware image: the bytes handed to the program
// and the manifest the outputs are checked against.
type image struct {
	ID     int
	Packed []byte
	Man    synth.Manifest
}

// genImages generates the images with the given ids from reseeded copies
// of the 59 synth.Dataset() specs. Image id k is copy c = k/59 of spec
// i = k%59: it keeps the spec's vendor, product, version and failure mode
// and takes the seed deriveSeed(seed, "spec", c, spec.Seed).
func genImages(ctx context.Context, seed int64, ids []int) ([]*image, error) {
	specs := synth.Dataset()
	out := make([]*image, len(ids))
	err := pool.ForEach(ctx, workers, len(out), func(n int) error {
		k := ids[n]
		c, i := k/len(specs), k%len(specs)
		sp := specs[i]
		sp.Seed = deriveSeed(seed, "spec", int64(c), sp.Seed)
		s, err := synth.Generate(sp)
		if err != nil {
			return fmt.Errorf("generating %s %s (copy %d): %w", sp.Product, sp.Version, c, err)
		}
		out[n] = &image{ID: k, Packed: s.Packed, Man: s.Manifest}
		return nil
	})
	return out, err
}

// imageIDs returns the ids of the first copies copies of the dataset.
func imageIDs(copies int) []int {
	ids := make([]int, copies*len(synth.Dataset()))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// chainSteps is the edit sequence of every generated version chain: one
// step of each kind, so each chain's diffs cover tuning, a patch, a new
// feature, a rename and a refactor.
var chainSteps = []synth.ChainStepKind{
	synth.StepTuneConst, synth.StepPatchBug, synth.StepAddFeature,
	synth.StepRenameExport, synth.StepRefactorITS,
}

// genChains generates n version chains; chain k has seed
// deriveSeed(seed, "chain", k, 0).
func genChains(ctx context.Context, seed int64, n int) ([]*synth.Chain, error) {
	out := make([]*synth.Chain, n)
	err := pool.ForEach(ctx, workers, n, func(k int) error {
		c, err := synth.GenerateChain(synth.ChainSpec{Seed: deriveSeed(seed, "chain", int64(k), 0), Steps: chainSteps})
		if err != nil {
			return fmt.Errorf("generating chain %d: %w", k, err)
		}
		out[k] = c
		return nil
	})
	return out, err
}

// xcorpus is one generated multi-binary corpus, packed for /v1/corpora.
type xcorpus struct {
	Packed []byte
	Man    synth.XManifest
}

// genXCorpora generates n corpora; corpus k has seed
// deriveSeed(seed, "xcorpus", k, 0).
func genXCorpora(ctx context.Context, seed int64, n int) ([]*xcorpus, error) {
	out := make([]*xcorpus, n)
	err := pool.ForEach(ctx, workers, n, func(k int) error {
		x, err := synth.GenerateXCorpus(deriveSeed(seed, "xcorpus", int64(k), 0))
		if err != nil {
			return fmt.Errorf("generating corpus %d: %w", k, err)
		}
		files := make([]fits.CorpusFile, len(x.Files))
		for i, f := range x.Files {
			files[i] = fits.CorpusFile{Path: f.Path, Data: f.Data}
		}
		out[k] = &xcorpus{Packed: fits.PackCorpus(files), Man: x.Manifest}
		return nil
	})
	return out, err
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
