package main

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// roadmapItem is one numbered entry of ROADMAP.md's open-items list.
type roadmapItem struct {
	closed bool
	// subs maps each lettered sub-item the entry lists, "(b)" → b, to
	// whether the sub-item is marked closed.
	subs map[string]bool
}

var (
	itemLineRe = regexp.MustCompile(`^(\d+)\.\s+(.*)$`)
	subLineRe  = regexp.MustCompile(`^\s*-\s+(?:\*\*)?\(([a-z])\)\s*(?:\*\*)?\s*(.*)$`)
	citationRe = regexp.MustCompile(`ROADMAP (\d+)(?:\(([a-z])\))?`)
)

// parseRoadmap reads the numbered items under the "## Open items"
// heading, up to the next heading that follows the first item. An item
// is closed when its text opens with "**Closed"; a sub-item when its
// text, after the "(x)" marker, opens with "Closed" or "closed".
func parseRoadmap(text string) map[int]roadmapItem {
	items := map[int]roadmapItem{}
	inSection, cur := false, -1
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			if cur >= 0 {
				break
			}
			inSection = strings.TrimSpace(line) == "## Open items"
			continue
		}
		if !inSection {
			continue
		}
		if m := itemLineRe.FindStringSubmatch(line); m != nil {
			cur, _ = strconv.Atoi(m[1])
			items[cur] = roadmapItem{
				closed: strings.HasPrefix(m[2], "**Closed"),
				subs:   map[string]bool{},
			}
			continue
		}
		if cur < 0 {
			continue
		}
		if m := subLineRe.FindStringSubmatch(line); m != nil {
			items[cur].subs[m[1]] = strings.HasPrefix(strings.ToLower(m[2]), "closed")
		}
	}
	return items
}

func TestParseRoadmap(t *testing.T) {
	items := parseRoadmap(`# Title

1. Not an item: above the section.

## Open items

Prose before the list.

3. **Open.**
   - **(a) A sub-item.**
   - (b) Closed: landed.
9. **Closed.** One line.

### Parked

4. Not an item: below the list.
`)
	if len(items) != 2 {
		t.Fatalf("parsed %d items, want 2 (3 and 9): %v", len(items), items)
	}
	if it := items[3]; it.closed || len(it.subs) != 2 || it.subs["a"] || !it.subs["b"] {
		t.Errorf("item 3 = %+v, want open with (a) open and (b) closed", it)
	}
	if !items[9].closed {
		t.Error("item 9 should read as closed")
	}
}

// A directive that keeps a name for a ROADMAP item must cite an item
// the roadmap still lists as open — a sub-item too, when it names one.
// When an item closes, every name its directives kept has either gained
// its caller (the directive went stale and failed the lint) or must be
// re-homed or deleted in the same change.
func TestDirectivesCiteOpenRoadmapItems(t *testing.T) {
	blob, err := os.ReadFile("../../ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	items := parseRoadmap(string(blob))
	if len(items) == 0 {
		t.Fatal("no numbered items found under ROADMAP.md's \"## Open items\"")
	}
	pkgs, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, pkg := range pkgs {
		sups, _ := analysis.CollectSuppressions(pkg, analysis.All())
		for _, s := range sups {
			for _, m := range citationRe.FindAllStringSubmatch(s.Reason, -1) {
				cited++
				n, _ := strconv.Atoi(m[1])
				item, ok := items[n]
				switch {
				case !ok:
					t.Errorf("%s: cites ROADMAP %s, which ROADMAP.md does not list", s.Pos, m[1])
				case item.closed:
					t.Errorf("%s: cites ROADMAP %s, which ROADMAP.md marks closed", s.Pos, m[1])
				case m[2] != "":
					subClosed, listed := item.subs[m[2]]
					if !listed {
						t.Errorf("%s: cites ROADMAP %s(%s), which item %s does not list", s.Pos, m[1], m[2], m[1])
					} else if subClosed {
						t.Errorf("%s: cites ROADMAP %s(%s), which ROADMAP.md marks closed", s.Pos, m[1], m[2])
					}
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no directive cites a ROADMAP item; the citation pattern has stopped matching")
	}
}
