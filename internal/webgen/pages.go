package webgen

import (
	"fmt"
	"strings"

	"tripwire/internal/captcha"
	"tripwire/internal/xrand"
)

// lexicon holds the per-language strings appearing on rendered pages. The
// crawler's heuristics are English-only (paper §4.3.1), so non-English
// sites render all navigation and labels in their own language.
type lexicon struct {
	signup   []string // registration link texts
	login    string
	home     string
	about    string
	contact  string
	blurbs   []string // filler sentences
	register string   // registration page heading
	submit   string   // submit button text
	success  string   // registration success message
	vague    string   // non-committal response message
	errorMsg string   // validation failure message
	welcome  string
}

var lexicons = map[Language]*lexicon{
	LangEnglish: {
		signup: linkTexts,
		login:  "Log in", home: "Home", about: "About", contact: "Contact",
		blurbs: []string{
			"Welcome to the best destination for news, reviews and community.",
			"Join thousands of members who trust us every day.",
			"Browse our catalog and find exactly what you are looking for.",
			"Fresh content updated daily by our editorial team.",
		},
		register: "Create your account", submit: "Create account",
		success:  "Thank you for registering! Your account has been created successfully.",
		vague:    "Your request has been received and is being processed.",
		errorMsg: "Error: please correct the highlighted fields and try again.",
		welcome:  "Welcome back",
	},
	LangChinese: {
		signup: []string{"注册", "创建账户", "立即加入"},
		login:  "登录", home: "首页", about: "关于我们", contact: "联系我们",
		blurbs:   []string{"欢迎访问我们的网站。", "每天更新最新内容。", "加入我们的社区。"},
		register: "创建您的账户", submit: "注册",
		success: "注册成功！", vague: "您的请求已收到。",
		errorMsg: "错误：请更正以下字段。", welcome: "欢迎回来",
	},
	LangRussian: {
		signup: []string{"Регистрация", "Создать аккаунт", "Присоединиться"},
		login:  "Войти", home: "Главная", about: "О нас", contact: "Контакты",
		blurbs:   []string{"Добро пожаловать на наш сайт.", "Свежие новости каждый день.", "Присоединяйтесь к сообществу."},
		register: "Создайте аккаунт", submit: "Зарегистрироваться",
		success: "Регистрация прошла успешно!", vague: "Ваш запрос получен.",
		errorMsg: "Ошибка: исправьте поля ниже.", welcome: "С возвращением",
	},
	LangSpanish: {
		signup: []string{"Regístrate", "Crear cuenta", "Únete ahora"},
		login:  "Iniciar sesión", home: "Inicio", about: "Acerca de", contact: "Contacto",
		blurbs:   []string{"Bienvenido a nuestro sitio.", "Contenido nuevo cada día.", "Únete a nuestra comunidad."},
		register: "Crea tu cuenta", submit: "Registrarse",
		success: "¡Registro completado!", vague: "Su solicitud ha sido recibida.",
		errorMsg: "Error: corrija los campos.", welcome: "Bienvenido",
	},
	LangGerman: {
		signup: []string{"Registrieren", "Konto erstellen", "Jetzt beitreten"},
		login:  "Anmelden", home: "Startseite", about: "Über uns", contact: "Kontakt",
		blurbs:   []string{"Willkommen auf unserer Seite.", "Täglich neue Inhalte.", "Werden Sie Mitglied."},
		register: "Konto erstellen", submit: "Registrieren",
		success: "Registrierung erfolgreich!", vague: "Ihre Anfrage ist eingegangen.",
		errorMsg: "Fehler: bitte Felder korrigieren.", welcome: "Willkommen zurück",
	},
	LangFrench: {
		signup: []string{"S'inscrire", "Créer un compte", "Rejoignez-nous"},
		login:  "Connexion", home: "Accueil", about: "À propos", contact: "Contact",
		blurbs:   []string{"Bienvenue sur notre site.", "Du contenu frais chaque jour.", "Rejoignez notre communauté."},
		register: "Créez votre compte", submit: "S'inscrire",
		success: "Inscription réussie !", vague: "Votre demande a été reçue.",
		errorMsg: "Erreur : corrigez les champs.", welcome: "Bon retour",
	},
}

func (s *Site) lex() *lexicon {
	if l, ok := lexicons[s.Language]; ok {
		return l
	}
	return lexicons[LangEnglish]
}

// pageShell wraps body content in the site's standard chrome.
func pageShell(s *Site, title, body string) string {
	l := s.lex()
	var b strings.Builder
	// One exact-ish allocation instead of a doubling cascade: the shell adds
	// a few hundred bytes of chrome around body.
	b.Grow(len(body) + 512)
	b.WriteString("<!DOCTYPE html>\n<html><head><title>")
	b.WriteString(escape(title))
	b.WriteString(" - ")
	b.WriteString(escape(s.Name))
	b.WriteString("</title></head>\n<body>\n<div id=\"header\"><h1>")
	b.WriteString(escape(s.Name))
	b.WriteString("</h1>\n<ul id=\"nav\">\n")
	navItem(&b, "/", l.home)
	navItem(&b, "/about", l.about)
	navItem(&b, "/contact", l.contact)
	navItem(&b, "/login", l.login)
	b.WriteString("</ul></div>\n<div id=\"content\">\n")
	b.WriteString(body)
	b.WriteString("\n</div>\n<div id=\"footer\"><p>&copy; ")
	b.WriteString(escape(s.Name))
	b.WriteString("</p></div>\n</body></html>\n")
	return b.String()
}

// navItem writes one navigation entry without a fmt round trip.
func navItem(b *strings.Builder, href, label string) {
	b.WriteString("<li><a href=\"")
	b.WriteString(href)
	b.WriteString("\">")
	b.WriteString(escape(label))
	b.WriteString("</a></li>\n")
}

// renderHome renders the site's home page, including (for most sites) the
// registration link the crawler must discover.
func renderHome(s *Site) string {
	l := s.lex()
	rng := s.rng()
	var b strings.Builder
	for i := 0; i < 2+rng.Intn(3); i++ {
		fmt.Fprintf(&b, "<p>%s</p>\n", escape(l.blurbs[rng.Intn(len(l.blurbs))]))
	}
	// Decoy search form: single text input, no password — heuristics must
	// not mistake it for registration.
	b.WriteString("<form action=\"/search\" method=\"get\"><input type=\"text\" name=\"q\"><input type=\"submit\" value=\"Search\"></form>\n")
	if s.HasRegistration {
		switch {
		case s.ExternalAuthOnly:
			// SSO-only: a button, no crawlable registration form anywhere.
			fmt.Fprintf(&b, "<p><a href=\"/sso/start\" class=\"btn\">%s</a></p>\n", escape("Continue with BigAuth"))
		case s.ObscureRegLink:
			// The link exists but its text is an image: nothing for the
			// text heuristics to match (paper §6.2.2).
			fmt.Fprintf(&b, "<p><a href=\"%s\"><img src=\"/img/join-button.png\" alt=\"\"></a></p>\n", s.RegPath)
		default:
			linkText := s.LinkText
			if s.Language != LangEnglish {
				linkText = l.signup[rng.Intn(len(l.signup))]
			}
			fmt.Fprintf(&b, "<p><a href=\"%s\" id=\"signup-link\">%s</a></p>\n", s.RegPath, escape(linkText))
		}
	}
	// Sidebar decoy: newsletter form (email but no password).
	b.WriteString("<div id=\"sidebar\"><form action=\"/newsletter\" method=\"post\"><input type=\"text\" name=\"nl_email\" placeholder=\"you@example.com\"><input type=\"submit\" value=\"OK\"></form></div>\n")
	return pageShell(s, l.home, b.String())
}

// renderRegistration renders the site's registration form page. For
// multi-stage sites this is page one (credentials only); for SSO-only sites
// it renders buttons with no form. The page carries the site's CSRF token
// and CAPTCHA challenge inline: the token is an HMAC of the domain and the
// challenge comes from an RNG seeded only by the site, so the page is a
// pure function of the site and the Universe caches it whole.
func renderRegistration(s *Site, spec *FormSpec, issuer *captcha.Issuer) string {
	l := s.lex()
	if s.ExternalAuthOnly {
		body := fmt.Sprintf("<h2>%s</h2>\n<p><a href=\"/sso/start\" class=\"btn\">Continue with BigAuth</a></p>\n<p><a href=\"/sso/other\" class=\"btn\">Continue with FaceSpace</a></p>\n", escape(l.register))
		return pageShell(s, l.register, body)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>%s</h2>\n", escape(l.register))
	if s.JSForm {
		// The form is assembled client-side; a static DOM walk sees only a
		// mount point and a script. This is the paper's dominant eligible-
		// site failure ("form misidentification", Figure 3).
		b.WriteString("<div id=\"reg-root\"></div>\n")
		fmt.Fprintf(&b, "<script>window.__APP__.mountRegistrationForm('#reg-root', {action: %q});</script>\n", s.RegPath)
		return pageShell(s, l.register, b.String())
	}
	action := s.RegPath
	fmt.Fprintf(&b, "<form id=\"regform\" action=\"%s\" method=\"post\">\n", action)
	renderFields(&b, s, spec, issuer)
	fmt.Fprintf(&b, "<input type=\"submit\" value=\"%s\">\n</form>\n", escape(l.submit))
	if s.MultiStage {
		b.WriteString("<p class=\"steps\">Step 1 of 2</p>\n")
	}
	return pageShell(s, l.register, b.String())
}

// renderStep2 renders the second page of a multi-stage registration. The
// continuation token is per-request state, so this page is never cached.
func renderStep2(s *Site, spec *FormSpec, continuation string) string {
	l := s.lex()
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>%s</h2>\n<p class=\"steps\">Step 2 of 2</p>\n", escape(l.register))
	fmt.Fprintf(&b, "<form id=\"regform2\" action=\"%s/complete\" method=\"post\">\n", s.RegPath)
	fmt.Fprintf(&b, "<input type=\"hidden\" name=\"continuation\" value=\"%s\">\n", escape(continuation))
	renderFields(&b, s, spec, nil)
	fmt.Fprintf(&b, "<input type=\"submit\" value=\"%s\">\n</form>\n", escape(l.submit))
	return pageShell(s, l.register, b.String())
}

// formLayout is how a site arranges label/control pairs. Real sites vary;
// the crawler's label-association heuristics must survive all of them.
type formLayout int

const (
	layoutParagraph formLayout = iota // <p><label>..</label><input></p>
	layoutTable                       // <tr><td>label</td><td><input></td></tr>
	layoutDiv                         // <div class="field"><label>..</label><input></div>
)

func (s *Site) layout() formLayout {
	return formLayout(xrand.New(s.seed ^ 0x1a7).Intn(3))
}

// fieldRow renders one labelled control in the site's layout.
func fieldRow(b *strings.Builder, layout formLayout, label, control string) {
	switch layout {
	case layoutTable:
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td></tr>\n", label, control)
	case layoutDiv:
		fmt.Fprintf(b, "<div class=\"field\">%s%s</div>\n", label, control)
	default:
		fmt.Fprintf(b, "<p>%s%s</p>\n", label, control)
	}
}

// renderFields renders the form controls. A nil issuer leaves out the
// CAPTCHA block (step-two forms never carry one); otherwise the site's
// challenge is drawn from an RNG seeded by the site alone.
func renderFields(b *strings.Builder, s *Site, spec *FormSpec, issuer *captcha.Issuer) {
	layout := s.layout()
	if layout == layoutTable {
		b.WriteString("<table class=\"formgrid\">\n")
		defer b.WriteString("</table>\n")
	}
	for _, f := range spec.Fields {
		switch {
		case f.Kind == FieldCSRF:
			fmt.Fprintf(b, "<input type=\"hidden\" name=\"%s\" value=\"%s\">\n", f.Name, csrfToken(s.Domain))
		case f.Kind == FieldCaptcha && issuer != nil:
			ch := issuer.Issue(s.Captcha, xrand.New(s.seed^0x9a6e5))
			fmt.Fprintf(b, "<input type=\"hidden\" name=\"captcha_id\" value=\"%s\">\n", escape(ch.ID))
			switch s.Captcha {
			case captcha.Image:
				fieldRow(b, layout,
					fmt.Sprintf("<label>%s</label>", escape(f.Label)),
					fmt.Sprintf("<img src=\"/captcha/%s.png\" alt=\"captcha\"><input type=\"text\" name=\"%s\">", escape(ch.ID), f.Name))
			case captcha.Knowledge:
				fieldRow(b, layout,
					fmt.Sprintf("<label>%s</label>", escape(ch.Prompt)),
					fmt.Sprintf("<input type=\"text\" name=\"%s\">", f.Name))
			case captcha.Interactive:
				fmt.Fprintf(b, "<div class=\"g-recaptcha\" data-sitekey=\"%s\"></div><input type=\"hidden\" name=\"captcha_token\" value=\"\">\n", csrfToken(s.Domain))
			}
		case f.Type == "checkbox":
			req := ""
			if f.Required {
				req = " required"
			}
			fieldRow(b, layout,
				fmt.Sprintf("<input type=\"checkbox\" name=\"%s\" value=\"on\"%s> ", f.Name, req),
				fmt.Sprintf("<label>%s</label>", escape(f.Label)))
		case f.Type == "select":
			var opts strings.Builder
			fmt.Fprintf(&opts, "<select name=\"%s\">", f.Name)
			for _, st := range []string{"", "CA", "NY", "TX", "WA", "FL"} {
				fmt.Fprintf(&opts, "<option value=\"%s\">%s</option>", st, st)
			}
			opts.WriteString("</select>")
			fieldRow(b, layout, fmt.Sprintf("<label>%s</label>", escape(f.Label)), opts.String())
		default:
			req := ""
			star := ""
			if f.Required {
				req = " required"
				star = " *"
			}
			fieldRow(b, layout,
				fmt.Sprintf("<label for=\"%s\">%s%s</label>", f.Name, escape(f.Label), star),
				fmt.Sprintf("<input type=\"%s\" name=\"%s\" id=\"%s\"%s>", f.Type, f.Name, f.Name, req))
		}
	}
}

// renderOutcome renders the post-submission page. ok selects success vs
// error; for sites with VagueResponse the success page wording avoids every
// keyword the crawler's success heuristics look for.
func renderOutcome(s *Site, ok bool, detail string) string {
	l := s.lex()
	var b strings.Builder
	if ok {
		msg := l.success
		if s.VagueResponse {
			msg = l.vague
		}
		fmt.Fprintf(&b, "<h2>%s</h2>\n", escape(msg))
		if s.EmailVerify && !s.VagueResponse {
			b.WriteString("<p>Please check your email to verify your account.</p>\n")
		}
	} else {
		fmt.Fprintf(&b, "<h2>%s</h2>\n<p class=\"error\">%s</p>\n", escape(l.errorMsg), escape(detail))
	}
	return pageShell(s, l.home, b.String())
}

// renderContact renders the site's contact page, the first address source
// the paper's disclosure process consulted ("looking for contact
// information on the site", §6.3.1).
func renderContact(s *Site) string {
	l := s.lex()
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>%s</h2>\n", escape(l.contact))
	if s.ContactEmail != "" {
		fmt.Fprintf(&b, "<p>Questions? Write to <a href=\"mailto:%s\">%s</a>.</p>\n",
			escape(s.ContactEmail), escape(s.ContactEmail))
	} else {
		b.WriteString("<p>Use our social channels to reach the team.</p>\n")
	}
	return pageShell(s, l.contact, b.String())
}

// renderLogin renders the login page; POST /login responds with a success
// or failure body used by registration-validation probes.
func renderLogin(s *Site) string {
	l := s.lex()
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>%s</h2>\n", escape(l.login))
	b.WriteString("<form id=\"loginform\" action=\"/login\" method=\"post\">\n")
	b.WriteString("<p><label>Username or email</label><input type=\"text\" name=\"login\"></p>\n")
	b.WriteString("<p><label>Password</label><input type=\"password\" name=\"password\"></p>\n")
	fmt.Fprintf(&b, "<input type=\"submit\" value=\"%s\">\n</form>\n", escape(l.login))
	return pageShell(s, l.login, b.String())
}

// escapeReplacer is built once: escape runs on every rendered string, and
// a strings.Replacer's lookup structure is expensive to rebuild per call.
var escapeReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escape(s string) string { return escapeReplacer.Replace(s) }
