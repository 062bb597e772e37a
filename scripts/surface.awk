# surface.awk — the public-surface rule of analysis_gate.sh, over the whole tree.
#
# Usage: awk -f scripts/surface.awk ALLOWLIST FILE.rs...
#
# A file's test tail starts at its first `#[cfg(test)]` at the start of a
# line. An item is a `pub` fn, method, struct, enum, trait, type alias, const
# or static before the test tail of a file in crates/*/src or
# crates/shims/*/src. It needs a caller: a non-comment line before the test
# tail of a file in examples/, src/, benchmark/src/ or crates/*/src other
# than the defining one (for a shim item, the test code of every other
# package counts too). The match is qualified wherever the call form allows:
#   associated fn / const  `Type::name`
#   method                 `.name(` or `Type::name`
#   free item              `<segment>::name`, where <segment> is `crate`,
#                          `super`, `self`, a segment of the item's module
#                          path, its crate's directory name, or any
#                          workspace library (`doacross_*`, the facade
#                          `preprocessed_doacross`) that may re-export it;
#                          or a `use` naming it (or a glob) beside such a
#                          segment, plus a line of code naming it.
# `use` lines (re-exports included) are never callers by themselves.
#
# ALLOWLIST holds `<item> (a|b|c) <why>` lines: (a) a type named in the
# signature of an item that has a caller, (b) a fixture or reference
# implementation that an integration test compares against, (c) a trait item
# that users implement. Items are named `<crate>::<module path>::<Name>`,
# associated ones `...::<Type>::<name>`.
#
# Prints one line per violation: an item with no caller and no allowlist
# entry, an entry whose reason is not in the closed set, an entry that names
# nothing, or an entry whose item now has a caller. With -v census=1 it
# prints every item and whether it has a caller instead.

FNR == 1 {
  allow = (FILENAME == ARGV[1])
  path = FILENAME
  sub(/^\.\//, "", path)
  intest = 0; inuse = 0; impl_ind = -1; sig = ""
  delete inline_mods
  crate = ""; modpath = ""; defines = 0
  if (match(path, /^crates\/shims\/[^\/]+\/src\//) || match(path, /^crates\/[^\/]+\/src\//)) {
    defines = 1
    root = substr(path, 1, RLENGTH)
    rest = substr(path, RLENGTH + 1)
    n = split(root, parts, "/")
    crate = parts[n - 2]
    sub(/\.rs$/, "", rest)
    sub(/(^|\/)(lib|main|mod)$/, "", rest)
    modpath = rest
    gsub(/\//, "::", modpath)
    if (path !~ /^crates\/shims\// && !(crate in lib)) { lib[crate] = 1; libs = libs " doacross_" crate }
  }
  prod = (path ~ /^(examples|src|benchmark\/src|crates\/[^\/]+\/src|crates\/shims\/[^\/]+\/src)\//)
  # The package a test file belongs to: a shim's own tests never serve it.
  pkg = path
  if (match(pkg, /^crates\/shims\/[^\/]+\//) || match(pkg, /^crates\/[^\/]+\//)) pkg = substr(pkg, 1, RLENGTH)
  else pkg = "."
}

allow {
  line = $0
  sub(/#.*/, "", line)
  if (line ~ /^[[:space:]]*$/) next
  na++
  akey[na] = $1; areason[na] = $2; aline[na] = FNR
  next
}

/^#\[cfg\(test\)\]/ { intest = 1 }

/^[[:space:]]*\/\// { next }

{
  code = $0
  sub(/[[:space:]]\/\/.*$/, "", code)
  caller = prod && !intest
  if (!caller && !(path ~ /^(tests|examples|benchmark\/src|crates\/[^\/]+\/(src|tests)|crates\/shims\/[^\/]+\/(src|tests))\//)) next
}

# --- definitions --------------------------------------------------------------

defines && !intest {
  if (impl_ind >= 0 && match(code, /^[[:space:]]*}/) && RLENGTH - 1 == impl_ind) impl_ind = -1
  if (match(code, /^[[:space:]]*(unsafe )?impl[<[:space:]]/)) {
    ind = match(code, /[^[:space:]]/) - 1
    head = code
    sub(/^[[:space:]]*(unsafe )?impl/, "", head)
    head = strip_generics(head)
    if (head ~ /[[:space:]]for[[:space:]]/) impl_type = ""
    else { match(head, /[A-Za-z_][A-Za-z_0-9]*/); impl_type = substr(head, RSTART, RLENGTH) }
    if (code !~ /}[[:space:]]*$/) impl_ind = ind
  }
  if (match(code, /^[[:space:]]*(pub )?mod [A-Za-z_0-9]+ \{/)) {
    m = code; sub(/^[[:space:]]*(pub )?mod /, "", m); sub(/ .*/, "", m)
    inline_mods[m] = 1
  }
  if (sig != "") {
    sig = sig " " code
    if (code ~ /[{;]/) finish_fn()
  } else if (match(code, /^[[:space:]]*pub ((const|unsafe|async) )*fn [A-Za-z_][A-Za-z_0-9]*/)) {
    name = substr(code, RSTART, RLENGTH); sub(/.* /, "", name)
    sig = code; sig_line = FNR
    sig_assoc = (impl_ind >= 0 && impl_type != "")
    if (code ~ /[{;]/) finish_fn()
  } else if (match(code, /^[[:space:]]*pub (const|struct|enum|type|trait|static( mut)?) [A-Za-z_][A-Za-z_0-9]*/)) {
    name = substr(code, RSTART, RLENGTH); sub(/.* /, "", name)
    if (impl_ind >= 0 && impl_type != "") define(impl_type "::" name, "assoc", name, impl_type)
    else define(name, "free", name, "")
  }
}

function strip_generics(s,   depth, i, c) {
  sub(/^[[:space:]]+/, "", s)
  if (substr(s, 1, 1) != "<") return s
  depth = 0
  for (i = 1; i <= length(s); i++) {
    c = substr(s, i, 1)
    if (c == "<") depth++
    else if (c == ">" && substr(s, i - 1, 1) != "-") { depth--; if (depth == 0) return substr(s, i + 1) }
  }
  return s
}

function finish_fn(   recv) {
  recv = (sig ~ /\([[:space:]]*(&[[:space:]]*('[A-Za-z_]+[[:space:]]+)?)?(mut[[:space:]]+)?self[^A-Za-z_0-9]/)
  if (sig_assoc) define(impl_type "::" name, recv ? "method" : "assoc", name, impl_type, sig_line)
  else define(name, "free", name, "", sig_line)
  sig = ""
}

function define(local, form, name, type, at,   k, segs, m) {
  ni++
  k = crate (modpath == "" ? "" : "::" modpath) "::" local
  ikey[ni] = k; iform[ni] = form; iname[ni] = name; itype[ni] = type
  ifile[ni] = path; iline[ni] = at ? at : FNR; ishim[ni] = (path ~ /^crates\/shims\//)
  segs = crate " " modpath
  gsub(/::/, " ", segs)
  for (m in inline_mods) segs = segs " " m
  isegs[ni] = " " segs " "
}

# --- callers ------------------------------------------------------------------

{
  t = code
  # `use` statements (re-exports too) only import: a name they mention is
  # a caller only beside a line of code that names it.
  if (!inuse && t ~ /^[[:space:]]*(pub(\([a-z]+\))? )?use /) { inuse = 1; ustmt = "" }
  if (inuse) {
    ustmt = ustmt " " t
    if (t ~ /;/) {
      inuse = 0
      nu++; utext[nu] = " " ustmt " "; ufile[nu] = path; ucaller[nu] = caller; upkg[nu] = pkg
      s = ustmt
      gsub(/[^A-Za-z_0-9]+/, " ", s)
      nw = split(s, w, " ")
      for (j = 1; j <= nw; j++) uses[w[j]] = uses[w[j]] SUBSEP nu
      # a glob import names every item of the path it names
      if (ustmt ~ /::\*/) uses["*"] = uses["*"] SUBSEP nu
    }
    next
  }
  # word tokens, for the use rule
  s = t
  gsub(/[^A-Za-z_0-9]+/, " ", s)
  nw = split(s, w, " ")
  for (j = 1; j <= nw; j++) if (caller) words[path, w[j]] = 1; else twords[path, w[j]] = 1
  # `a::b` pairs: qualified associated items and free-item paths
  s = t
  while (match(s, /[A-Za-z_][A-Za-z_0-9]*::[A-Za-z_][A-Za-z_0-9]*/)) {
    pair = substr(s, RSTART, RLENGTH)
    note("q:" pair)
    s = substr(s, RSTART + index(pair, "::") + 1)
  }
  # `.name(` method calls
  s = t
  while (match(s, /\.[A-Za-z_][A-Za-z_0-9]*(\(|::<)/)) {
    m = substr(s, RSTART + 1, RLENGTH - 1); sub(/(\(|::<)$/, "", m)
    note("m:" m)
    s = substr(s, RSTART + RLENGTH)
  }
}

# Records that token `k` occurs in this file, split by whether the line is a
# caller (production code) or test code, and by file and package, so that a
# lookup can exclude the defining file or the defining shim's own tests.
function note(k) {
  if (caller) {
    if (!((k, path) in seenc)) { seenc[k, path] = 1; cfiles[k] = cfiles[k] SUBSEP path }
  } else if (!((k, pkg) in seent)) { seent[k, pkg] = 1; tpkgs[k] = tpkgs[k] SUBSEP pkg }
}

# True if token `k` occurs on a caller line of a file other than `def`, or,
# when `shim` is set, on a test line of a package other than `shim`'s.
function found(k, def, shimpkg,   list, n, i) {
  n = split(cfiles[k], list, SUBSEP)
  for (i = 2; i <= n; i++) if (list[i] != def) return 1
  if (shimpkg == "") return 0
  n = split(tpkgs[k], list, SUBSEP)
  for (i = 2; i <= n; i++) if (list[i] != shimpkg) return 1
  return 0
}

function has_caller(i,   def, sp, n, list, x, u, sg, ns, j, f) {
  def = ifile[i]
  sp = ishim[i] ? "crates/shims/" substr(ikey[i], 1, index(ikey[i], "::") - 1) "/" : ""
  if (iform[i] == "assoc") return found("q:" itype[i] "::" iname[i], def, sp)
  if (iform[i] == "method")
    return found("m:" iname[i], def, sp) || found("q:" itype[i] "::" iname[i], def, sp)
  ns = split("crate super self preprocessed_doacross " libs isegs[i], sg, " ")
  for (j = 1; j <= ns; j++) if (found("q:" sg[j] "::" iname[i], def, sp)) return 1
  n = split(uses[iname[i]] uses["*"], list, SUBSEP)
  for (x = 2; x <= n; x++) {
    u = list[x]; f = ufile[u]
    if (f == def) continue
    if (ucaller[u]) { if (!((f, iname[i]) in words)) continue }
    else if (sp == "" || upkg[u] == sp || !((f, iname[i]) in twords)) continue
    for (j = 1; j <= ns; j++)
      if (match(utext[u], "[^A-Za-z_0-9]" sg[j] "[^A-Za-z_0-9]")) return 1
  }
  return 0
}

END {
  for (i = 1; i <= ni; i++) {
    c = has_caller(i)
    if (c) called[ikey[i]] = 1
    if (census) { printf "%s\t%s\t%s:%d\t%s\n", c ? "called" : "NONE", ikey[i], ifile[i], iline[i], iform[i]; continue }
    exists[ikey[i]] = 1
  }
  if (census) exit 0
  for (a = 1; a <= na; a++) {
    k = akey[a]
    allowed[k] = 1
    if (areason[a] !~ /^\([abc]\)$/)
      printf "allowlist line %d: %s: reason '%s' is not (a), (b) or (c)\n", aline[a], k, areason[a]
    if (!(k in exists)) printf "allowlist line %d: %s names nothing\n", aline[a], k
    else if (k in called) printf "allowlist line %d: %s now has a caller\n", aline[a], k
  }
  for (i = 1; i <= ni; i++)
    if (!(ikey[i] in called) && !(ikey[i] in allowed) && !(ikey[i] in reported)) {
      reported[ikey[i]] = 1
      printf "%s has no caller outside tests (%s:%d)\n", ikey[i], ifile[i], iline[i]
    }
}
