package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"gossip/internal/corpus"
	"gossip/internal/runner"
)

// referenceCheck replays the "reference" grid of corpus.manifest.json in
// process and requires its cells.jsonl to match the committed
// testdata/reference-run byte for byte. A benchmark whose program computes
// different results measures nothing worth comparing, so a mismatch
// aborts the run before any timing.
func referenceCheck(root string) error {
	mf, err := corpus.LoadManifestFile(filepath.Join(root, "corpus.manifest.json"))
	if err != nil {
		return err
	}
	g, ok := mf.Grids["reference"]
	if !ok {
		return fmt.Errorf("corpus.manifest.json declares no \"reference\" grid")
	}
	want, err := os.ReadFile(filepath.Join(root, "testdata", "reference-run", "cells.jsonl"))
	if err != nil {
		return err
	}
	var got bytes.Buffer
	r := &runner.Runner{Seed: g.Seed}
	if err := runner.WriteJSONL(&got, r.RunGrid(g)); err != nil {
		return err
	}
	if bytes.Equal(got.Bytes(), want) {
		return nil
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Errorf("reference replay differs at cells.jsonl line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("reference replay has %d lines, want %d", len(gl), len(wl))
}
