# Sourced by scripts/check.sh and scripts/loc.sh; defines no other name.
#
# nontest FILE... prints the product part of each Rust source file, every
# line prefixed `FILE: `: the file up to the `#[cfg(test)]` that opens its
# test module (the attribute followed by a `mod` item). A `#[cfg(test)]`
# on any other item — a test hook inside product code — does not cut.
nontest() {
  awk '
    FNR == 1 { cut = 0; held = "" }
    cut { next }
    held != "" {
      if ($0 ~ /^[[:space:]]*(pub )?mod /) { cut = 1; next }
      print FILENAME ": " held
      held = ""
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = $0; next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub )?mod / { cut = 1; next }
    { print FILENAME ": " $0 }
  ' "$@"
}
