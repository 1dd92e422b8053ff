// Funnel reproduces the paper's §7.1 site-eligibility study and Figure 3
// registration funnel in isolation: it censuses 100-site windows of the
// synthetic web the way the authors manually visited samples at Alexa ranks
// 1, 1,000, 10,000 and 100,000, then crawls the eligible sites and shows
// where the automated pipeline loses them.
package main

import (
	"flag"
	"fmt"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/crawler"
	"tripwire/internal/identity"
	"tripwire/internal/webgen"
)

func main() {
	numSites := flag.Int("sites", 12000, "size of the generated web")
	window := flag.Int("window", 100, "census window size")
	flag.Parse()

	cfg := webgen.DefaultConfig()
	cfg.NumSites = *numSites
	universe := webgen.Generate(cfg)

	fmt.Println("Site eligibility census (paper Table 4)")
	fmt.Printf("%-10s %9s %11s %15s %11s %7s\n", "StartRank", "LoadFail", "NotEnglish", "NoRegistration", "Ineligible", "Rest")
	for _, startRank := range []int{1, 1000, 10000, 100000} {
		if startRank+*window-1 > *numSites {
			continue
		}
		var loadFail, notEnglish, noReg, inelig, rest int
		for rank := startRank; rank < startRank+*window; rank++ {
			site, _ := universe.SiteByRank(rank)
			switch {
			case site.LoadFailure:
				loadFail++
			case site.Language != webgen.LangEnglish:
				notEnglish++
			case !site.HasRegistration:
				noReg++
			case site.ExternalAuthOnly || site.RequiresPayment || site.MaxEmailLen > 0:
				inelig++
			default:
				rest++
			}
		}
		pct := func(n int) string { return fmt.Sprintf("%d%%", 100*n / *window) }
		fmt.Printf("%-10d %9s %11s %15s %11s %7s\n",
			startRank, pct(loadFail), pct(notEnglish), pct(noReg), pct(inelig), pct(rest))
	}

	// Crawl the first window's eligible sites to show the funnel's middle.
	fmt.Println("\nCrawler outcomes on eligible sites from the top window (Figure 3 middle)")
	gen := identity.NewGenerator("bigmail.test", 3)
	solver := captcha.NewService(0.15, 0.25, 4)
	ccfg := crawler.DefaultConfig()
	ccfg.Seed = 5
	c := crawler.New(ccfg, solver)
	counts := make(map[crawler.Code]int)
	eligible := 0
	for rank := 1; rank <= 400 && rank <= *numSites; rank++ {
		site, _ := universe.SiteByRank(rank)
		if !site.Eligible() {
			continue
		}
		eligible++
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: universe}))
		res := c.Register(b, "http://"+site.Domain+"/", gen.New(identity.Hard))
		counts[res.Code]++
	}
	for _, code := range []crawler.Code{
		crawler.CodeNoRegistration, crawler.CodeFieldsMissing,
		crawler.CodeSubmissionFailed, crawler.CodeOKSubmission,
		crawler.CodeSystemError,
	} {
		fmt.Printf("  %-30s %5d  %5.1f%%\n", code, counts[code], 100*float64(counts[code])/float64(eligible))
	}
	fmt.Printf("  %-30s %5d\n", "eligible sites crawled", eligible)
}
