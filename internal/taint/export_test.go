package taint

import (
	"context"

	"repro/internal/analyzer"
	"repro/internal/govern"
	"repro/internal/phpast"
)

// ModelOver links target's model over parsed, the ASTs by path (nil
// parses every file), and returns its inventory, the files the include
// budget fails, and the ASTs it linked.
func (e *Engine) ModelOver(target *analyzer.Target, parsed map[string]*phpast.File) (*ModelInfo, []string, map[string]*phpast.File) {
	a := newAnalysis(e, target)
	a.gov = govern.New(context.Background(), nil, nil)
	a.fileWorkers = 1
	a.buildModel(nil, &Seed{Parsed: parsed, Plan: func(map[string]*phpast.File, bool) map[string]*FileResult { return nil }})
	a.failOversizedFiles()
	return a.modelInfo(), a.result.FilesFailed, a.files
}
