package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
)

// streamOracle computes the stat block cmd/rdfalign must print for
// -method deblank on two versions of the streamed corpus, from the
// N-Triples text alone. The corpus has no blank nodes, so the deblank
// partition is the label partition: two nodes align exactly when their
// terms are equal, and an edge signature is a triple's text. Every term,
// predicates included, is a graph node. Hence
//
//	aligned entities = terms occurring in both versions,
//	common / union signatures = distinct triples in both / either version.
//
// This shares no code with the aligner, so it catches a change to the
// program's output however the program is restructured.
func streamOracle(v1, v2 string) (*expectation, error) {
	a, err := readVersionSets(v1)
	if err != nil {
		return nil, err
	}
	b, err := readVersionSets(v2)
	if err != nil {
		return nil, err
	}
	common := countCommon(a.triples, b.triples)
	union := len(a.triples) + len(b.triples) - common
	uris := countCommon(a.uris, b.uris)
	all := uris + countCommon(a.literals, b.literals)
	ratio := 1.0
	if union != 0 {
		ratio = float64(common) / float64(union)
	}
	block := fmt.Sprintf("source: %s\ntarget: %s\nmethod=deblank theta=%.2f\naligned entities (all): %d\naligned entities (URI): %d\naligned-edge ratio: %.4f (%d of %d signatures)\n",
		a.stats("source"), b.stats("target"), cliTheta, all, uris, ratio, common, union)
	return &expectation{Block: block}, nil
}

// versionSets holds one version's distinct triples and node terms as
// sorted 64-bit hashes of their text.
type versionSets struct {
	triples, uris, literals []uint64
}

func (v *versionSets) stats(name string) string {
	return fmt.Sprintf("%s: nodes=%d (uris=%d literals=%d blanks=0) triples=%d",
		name, len(v.uris)+len(v.literals), len(v.uris), len(v.literals), len(v.triples))
}

func readVersionSets(path string) (*versionSets, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var v versionSets
	r := bufio.NewReaderSize(f, 1<<20)
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		line = bytes.TrimRight(line, "\n")
		// <s> <p> object .
		body, ok := bytes.CutSuffix(line, []byte(" ."))
		s, rest, ok1 := bytes.Cut(body, []byte{' '})
		p, obj, ok2 := bytes.Cut(rest, []byte{' '})
		if !ok || !ok1 || !ok2 || len(s) == 0 || s[0] != '<' || len(p) == 0 || p[0] != '<' || len(obj) == 0 {
			return nil, fmt.Errorf("%s:%d: the oracle reads only blank-free <s> <p> o . lines, got %q", path, lineNo, line)
		}
		v.triples = append(v.triples, fnv64(line))
		v.uris = append(v.uris, fnv64(s), fnv64(p)) // predicates are graph nodes too
		switch obj[0] {
		case '<':
			v.uris = append(v.uris, fnv64(obj))
		case '"':
			v.literals = append(v.literals, fnv64(obj))
		default:
			return nil, fmt.Errorf("%s:%d: the oracle reads only blank-free corpora, got object %q", path, lineNo, obj)
		}
	}
	v.triples = sortedUnique(v.triples)
	v.uris = sortedUnique(v.uris)
	v.literals = sortedUnique(v.literals)
	return &v, nil
}

// fnv64 is 64-bit FNV-1a. Over a few million distinct strings a
// collision has odds of about 1 in 10^6, and would show as a failure.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func sortedUnique(xs []uint64) []uint64 {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// countCommon counts the values two sorted, duplicate-free slices share.
func countCommon(a, b []uint64) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
