package browser

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tripwire/internal/htmldom"
)

// sizedHandler serves /N as a page of N list items, a form and a link, so
// sessions that share recycled parse storage see documents of different
// shapes.
func sizedHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		fmt.Fprintf(w, `<html><head><title>Page %d</title></head><body><ul>`, n)
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, `<li class="item" id="i%d">item %d &amp; more`, i, i)
		}
		fmt.Fprintf(w, `</ul><form action="/s%d" method="post"><label for="e">Email %d</label>`+
			`<input id="e" name="email%d" value="v%d"></form><a href="/%d">next</a></body></html>`, n, n, n, n, n+1)
	})
}

// Storage given back by one borrower is what the next borrower from the
// same Pool parses into, while strings copied out of the first borrower's
// pages stay unchanged, a page the first client loaded before it borrowed
// survives the give-back, and the first client stays usable on its own
// storage.
func TestReleasedStorageReusedByNextSession(t *testing.T) {
	h := sizedHandler()
	var pool Pool
	first := New(WithTransport(&HandlerTransport{Handler: h}))
	before, err := first.Get("http://x.test/5")
	if err != nil {
		t.Fatal(err)
	}
	giveBack := first.Borrow(&pool)
	p, err := first.Get("http://x.test/40")
	if err != nil {
		t.Fatal(err)
	}
	oldDOM := p.DOM
	raw, title, text := p.Raw, p.Title(), p.DOM.Text()
	form := p.Forms()[0]
	field := form.Fields[0]
	name, value, label, ctx := field.Name, field.Value, field.Label, field.Context()
	link := p.Links()[0]
	linkURL, linkText := link.URL.String(), link.Text
	giveBack()

	second := New(WithTransport(&HandlerTransport{Handler: h}))
	defer second.Borrow(&pool)()
	q, err := second.Get("http://x.test/60")
	if err != nil {
		t.Fatal(err)
	}
	if q.DOM != oldDOM {
		t.Fatal("the next borrower did not reuse the storage given back")
	}
	if got, want := htmldom.Render(before.DOM), htmldom.Render(htmldom.Parse(before.Raw)); got != want {
		t.Fatal("a page loaded before Borrow did not survive the give-back")
	}
	// The first client stays usable: its next page and release use its own
	// storage and leave the second borrower's document alone.
	if _, err := first.Get("http://x.test/7"); err != nil {
		t.Fatal(err)
	}
	first.Release()
	if got, want := htmldom.Render(q.DOM), htmldom.Render(htmldom.Parse(q.Raw)); got != want {
		t.Fatal("the second borrower's document differs from a fresh parse")
	}
	fresh := htmldom.Parse(raw)
	if title != "Page 40" || text != fresh.Text() {
		t.Fatalf("page strings changed: title %q", title)
	}
	if name != "email40" || value != "v40" || label != "Email 40" || ctx != "email40 e email 40 " {
		t.Fatalf("field strings changed: %q %q %q %q", name, value, label, ctx)
	}
	if linkURL != "http://x.test/41" || linkText != "next" {
		t.Fatalf("link strings changed: %q %q", linkURL, linkText)
	}
}

// A borrow inside a borrow gives back only its own storage and restores
// the outer borrow's, whose page survives the inner give-back; the outer
// give-back restores the client's own storage.
func TestBorrowNests(t *testing.T) {
	var pool Pool
	c := New(WithTransport(&HandlerTransport{Handler: sizedHandler()}))
	if _, err := c.Get("http://x.test/3"); err != nil {
		t.Fatal(err)
	}
	own := c.arena
	outer := c.Borrow(&pool)
	lent := c.arena
	p, err := c.Get("http://x.test/30")
	if err != nil {
		t.Fatal(err)
	}
	inner := c.Borrow(&pool)
	if c.arena == lent || c.arena == own {
		t.Fatal("the inner borrow lent storage already in use")
	}
	if _, err := c.Get("http://x.test/31"); err != nil {
		t.Fatal(err)
	}
	inner()
	if c.arena != lent {
		t.Fatal("the inner give-back did not restore the outer borrow's storage")
	}
	if got, want := htmldom.Render(p.DOM), htmldom.Render(htmldom.Parse(p.Raw)); got != want {
		t.Fatal("the outer borrow's page did not survive the inner give-back")
	}
	outer()
	if c.arena != own {
		t.Fatal("the outer give-back did not restore the client's own storage")
	}
}

// A long-lived session that releases after every page, as the pilot's
// verification-link clicker does, stays within a steady-state budget: a
// fixed number of allocations per cycle and no retained growth. Without
// Release its storage would keep every page it ever parsed.
func TestGetReleaseSteadyState(t *testing.T) {
	c := New(WithTransport(&HandlerTransport{Handler: sizedHandler()}))
	cycle := func() {
		if _, err := c.Get("http://x.test/20"); err != nil {
			t.Fatal(err)
		}
		c.Release()
	}
	cycle()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// Measured: 28 allocs/op; 50 under the race detector, which makes
	// sync.Pool (the render buffers, the handler transport's recorders)
	// drop items at random.
	const budget = 58
	if got := testing.AllocsPerRun(1000, cycle); got > budget {
		t.Errorf("Get+Release = %.1f allocs/op, budget %d", got, budget)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<10 {
		t.Errorf("live heap grew %d KB over 1,000 Get+Release cycles", grew>>10)
	}
}

// Concurrent borrowers from one Pool recycle each other's storage without
// sharing a live document: every page a borrower parses renders exactly as
// a fresh parse of its bytes, both right after the load and just before
// the give-back, after other borrowers have parsed in between. Run under
// -race, this is the browser's pool-safety check.
func TestConcurrentSessionsRecycleStorage(t *testing.T) {
	const goroutines, sessions = 8, 200
	h := sizedHandler()
	var pool Pool
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < sessions; s++ {
				c := New(WithTransport(&HandlerTransport{Handler: h}))
				giveBack := c.Borrow(&pool)
				p, err := c.Get("http://x.test/" + strconv.Itoa((g*sessions+s)%37))
				if err != nil {
					t.Error(err)
					return
				}
				want := htmldom.Render(htmldom.Parse(p.Raw))
				if htmldom.Render(p.DOM) != want {
					t.Errorf("goroutine %d session %d: recycled parse differs from a fresh one", g, s)
					return
				}
				runtime.Gosched()
				if htmldom.Render(p.DOM) != want {
					t.Errorf("goroutine %d session %d: another borrower overwrote a live document", g, s)
					return
				}
				giveBack()
			}
		}(g)
	}
	wg.Wait()
}
