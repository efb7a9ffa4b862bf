package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
)

// checkArtifact is the staleness gate behind `bench -check` and
// `frontier -check`: fresh, the artifact just recomputed and encoded,
// must equal the file at path byte-for-byte. An empty path is an error,
// not a pass — a check with nothing to compare against must not exit 0.
// regen names the command that rewrites a stale artifact.
func checkArtifact(path, regen string, fresh []byte) error {
	if path == "" {
		return errors.New("-check needs the artifact path in -o")
	}
	existing, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(existing, fresh) {
		return fmt.Errorf("%s is stale (regenerate with `%s`)", path, regen)
	}
	return nil
}
