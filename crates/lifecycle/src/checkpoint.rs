//! Deterministic model checkpoints.
//!
//! A checkpoint is a canonical, line-oriented text rendering of a
//! [`FrappeModel`]: feature set, kernel, imputation table, min–max scale
//! lanes, the SVM decision function (support vectors, signed dual
//! coefficients, bias). Three properties are load-bearing and tested:
//!
//! * **Byte determinism** — every `f64` is written as the 16-hex-digit
//!   form of [`f64::to_bits`], never as a decimal rendering, so
//!   `write(parse(write(m))) == write(m)` byte for byte and a loaded
//!   model's decision values are **bit-equal** to the original's on every
//!   input. (Decimal float formatting is a lossy, library-dependent
//!   choice; bit patterns are not.)
//! * **Schema refusal** — the header embeds
//!   [`frappe::catalog::schema_hash`], a fingerprint of the feature
//!   catalog's identity and ordering. Lane order is the encode/scale/
//!   weight order, so loading a model against a reordered or re-membered
//!   catalog would silently mis-wire every weight; instead the load fails
//!   with [`CheckpointError::SchemaMismatch`].
//! * **Typed refusal of hostile input** — a checkpoint file is a trust
//!   boundary. Truncated, malformed or inconsistent text (counts that do
//!   not match the lines present, lane counts that differ from the feature
//!   set, a legacy `rff` section) fails with [`CheckpointError::Parse`];
//!   the parser never panics and never allocates from a count it has not
//!   yet seen lines for.
//!
//! Saves are atomic: the text is written to a sibling temp file and
//! renamed over the target, so a crashed save never leaves a torn
//! checkpoint where a loader can find it.

use std::fmt;
use std::fs;
use std::path::Path;

use frappe::{catalog, FeatureId, FeatureSet, FrappeModel, Imputation};
use svm::{Kernel, Scaler, SvmModel};

/// Format tag on the first line; bump on any incompatible layout change.
const MAGIC: &str = "frappe-checkpoint v1";

/// Why a checkpoint failed to save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (open, read, write, or rename).
    Io(std::io::Error),
    /// The text is not a well-formed checkpoint; `line` is 1-based.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        what: String,
    },
    /// The checkpoint was written under a different feature catalog —
    /// loading it would mis-wire the model's lanes.
    SchemaMismatch {
        /// The running catalog's [`catalog::schema_hash`].
        expected: u64,
        /// The hash embedded in the checkpoint.
        found: u64,
    },
    /// The first line names a format this build does not understand.
    UnsupportedVersion {
        /// The header line as found.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(err) => write!(f, "checkpoint I/O error: {err}"),
            CheckpointError::Parse { line, what } => {
                write!(f, "checkpoint parse error at line {line}: {what}")
            }
            CheckpointError::SchemaMismatch { expected, found } => write!(
                f,
                "checkpoint was written under feature-catalog schema {found:016x}, \
                 but this build's catalog hashes to {expected:016x} — refusing to \
                 load a model whose lanes would be mis-wired"
            ),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint header {found:?} (expected {MAGIC:?})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(err: std::io::Error) -> Self {
        CheckpointError::Io(err)
    }
}

// ---------------------------------------------------------------------------
// primitive encodings
// ---------------------------------------------------------------------------

fn hex_of(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_of(token: &str, line: usize) -> Result<f64, CheckpointError> {
    if token.len() != 16 {
        return Err(CheckpointError::Parse {
            line,
            what: format!("expected a 16-hex-digit f64 bit pattern, got {token:?}"),
        });
    }
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointError::Parse {
            line,
            what: format!("invalid f64 bit pattern {token:?}"),
        })
}

fn usize_of(token: &str, line: usize, what: &str) -> Result<usize, CheckpointError> {
    token.parse().map_err(|_| CheckpointError::Parse {
        line,
        what: format!("invalid {what} {token:?}"),
    })
}

fn set_token(set: FeatureSet) -> String {
    match set {
        FeatureSet::Lite => "lite".to_string(),
        FeatureSet::Full => "full".to_string(),
        FeatureSet::Robust => "robust".to_string(),
        FeatureSet::Obfuscatable => "obfuscatable".to_string(),
        FeatureSet::Single(id) => format!("single:{}", id.def().key),
    }
}

fn set_of(token: &str, line: usize) -> Result<FeatureSet, CheckpointError> {
    match token {
        "lite" => Ok(FeatureSet::Lite),
        "full" => Ok(FeatureSet::Full),
        "robust" => Ok(FeatureSet::Robust),
        "obfuscatable" => Ok(FeatureSet::Obfuscatable),
        other => match other.strip_prefix("single:").and_then(catalog::by_key) {
            Some(def) => Ok(FeatureSet::Single(def.id)),
            None => Err(CheckpointError::Parse {
                line,
                what: format!("unknown feature set {token:?}"),
            }),
        },
    }
}

fn kernel_line(kernel: Kernel) -> String {
    match kernel {
        Kernel::Linear => "kernel linear".to_string(),
        Kernel::Rbf { gamma } => format!("kernel rbf {}", hex_of(gamma)),
        Kernel::Polynomial {
            degree,
            gamma,
            coef0,
        } => format!("kernel poly {degree} {} {}", hex_of(gamma), hex_of(coef0)),
        Kernel::Sigmoid { gamma, coef0 } => {
            format!("kernel sigmoid {} {}", hex_of(gamma), hex_of(coef0))
        }
    }
}

fn kernel_of(tokens: &[&str], line: usize) -> Result<Kernel, CheckpointError> {
    let bad = |what: String| CheckpointError::Parse { line, what };
    match tokens {
        ["linear"] => Ok(Kernel::Linear),
        ["rbf", gamma] => Ok(Kernel::Rbf {
            gamma: f64_of(gamma, line)?,
        }),
        ["poly", degree, gamma, coef0] => Ok(Kernel::Polynomial {
            degree: degree
                .parse()
                .map_err(|_| bad(format!("invalid polynomial degree {degree:?}")))?,
            gamma: f64_of(gamma, line)?,
            coef0: f64_of(coef0, line)?,
        }),
        ["sigmoid", gamma, coef0] => Ok(Kernel::Sigmoid {
            gamma: f64_of(gamma, line)?,
            coef0: f64_of(coef0, line)?,
        }),
        other => Err(bad(format!("unknown kernel spec {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// write
// ---------------------------------------------------------------------------

/// Renders a model as canonical checkpoint text.
///
/// Pure function of the model's components: the same model always renders
/// to the same bytes, and `write(parse(text)) == text` for any text this
/// function produced.
pub fn write_model(model: &FrappeModel) -> String {
    let svm = model.svm_model();
    let scaler = model.scaler();
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("schema {:016x}\n", catalog::schema_hash()));
    out.push_str(&format!("set {}\n", set_token(model.feature_set())));
    out.push_str(&kernel_line(svm.kernel()));
    out.push('\n');

    let imputation = model.imputation().values();
    out.push_str(&format!("imputation {}\n", imputation.len()));
    for (id, fill) in imputation {
        out.push_str(&format!("{} {}\n", id.def().key, hex_of(*fill)));
    }

    let (mins, maxs) = (scaler.mins(), scaler.maxs());
    out.push_str(&format!("scaler {}\n", mins.len()));
    for (min, max) in mins.iter().zip(maxs) {
        out.push_str(&format!("{} {}\n", hex_of(*min), hex_of(*max)));
    }

    let dim = svm.support_vectors().first().map_or(0, Vec::len);
    out.push_str(&format!(
        "svm {} {} {}\n",
        svm.support_vector_count(),
        dim,
        hex_of(svm.rho())
    ));
    for (sv, coef) in svm.support_vectors().iter().zip(svm.dual_coefs()) {
        out.push_str(&hex_of(*coef));
        for x in sv {
            out.push(' ');
            out.push_str(&hex_of(*x));
        }
        out.push('\n');
    }

    out.push_str("end\n");
    out
}

// ---------------------------------------------------------------------------
// parse
// ---------------------------------------------------------------------------

/// Line cursor with 1-based positions for error reporting.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self, expecting: &str) -> Result<(&'a str, usize), CheckpointError> {
        self.line += 1;
        match self.iter.next() {
            Some(text) => Ok((text, self.line)),
            None => Err(CheckpointError::Parse {
                line: self.line,
                what: format!("unexpected end of checkpoint (expecting {expecting})"),
            }),
        }
    }
}

fn section<'a>(
    lines: &mut Lines<'a>,
    keyword: &str,
) -> Result<(Vec<&'a str>, usize), CheckpointError> {
    let (text, line) = lines.next(keyword)?;
    let mut tokens = text.split_whitespace();
    match tokens.next() {
        Some(k) if k == keyword => Ok((tokens.collect(), line)),
        _ => Err(CheckpointError::Parse {
            line,
            what: format!("expected a {keyword:?} line, got {text:?}"),
        }),
    }
}

/// Parses checkpoint text back into a model.
///
/// Fails with [`CheckpointError::SchemaMismatch`] when the embedded
/// catalog hash differs from the running build's — see the module docs
/// for why that refusal is non-negotiable.
pub fn parse_model(text: &str) -> Result<FrappeModel, CheckpointError> {
    let mut lines = Lines {
        iter: text.lines(),
        line: 0,
    };

    let (header, _) = lines.next("header")?;
    if header != MAGIC {
        return Err(CheckpointError::UnsupportedVersion {
            found: header.to_string(),
        });
    }

    let (schema, line) = section(&mut lines, "schema")?;
    let [hash] = schema[..] else {
        return Err(CheckpointError::Parse {
            line,
            what: "schema line takes exactly one hash".to_string(),
        });
    };
    let found = u64::from_str_radix(hash, 16).map_err(|_| CheckpointError::Parse {
        line,
        what: format!("invalid schema hash {hash:?}"),
    })?;
    let expected = catalog::schema_hash();
    if found != expected {
        return Err(CheckpointError::SchemaMismatch { expected, found });
    }

    let (set_tokens, line) = section(&mut lines, "set")?;
    let [token] = set_tokens[..] else {
        return Err(CheckpointError::Parse {
            line,
            what: "set line takes exactly one feature-set token".to_string(),
        });
    };
    let set = set_of(token, line)?;

    let (kernel_tokens, line) = section(&mut lines, "kernel")?;
    let kernel = kernel_of(&kernel_tokens, line)?;

    let (imp_header, line) = section(&mut lines, "imputation")?;
    let [count] = imp_header[..] else {
        return Err(CheckpointError::Parse {
            line,
            what: "imputation line takes exactly one count".to_string(),
        });
    };
    // Counts come from the file, so vectors grow as lines arrive instead of
    // being sized up front: a forged count fails at the first missing line.
    let count = usize_of(count, line, "imputation count")?;
    let mut imputation: Vec<(FeatureId, f64)> = Vec::new();
    for _ in 0..count {
        let (text, line) = lines.next("an imputation entry")?;
        let mut tokens = text.split_whitespace();
        let (Some(key), Some(fill), None) = (tokens.next(), tokens.next(), tokens.next()) else {
            return Err(CheckpointError::Parse {
                line,
                what: format!("expected `<feature-key> <f64-bits>`, got {text:?}"),
            });
        };
        let def = catalog::by_key(key).ok_or_else(|| CheckpointError::Parse {
            line,
            what: format!("unknown feature key {key:?}"),
        })?;
        imputation.push((def.id, f64_of(fill, line)?));
    }

    let (scaler_header, line) = section(&mut lines, "scaler")?;
    let [dim] = scaler_header[..] else {
        return Err(CheckpointError::Parse {
            line,
            what: "scaler line takes exactly one lane count".to_string(),
        });
    };
    let dim = usize_of(dim, line, "scaler lane count")?;
    expect_dim(dim, set, line, "scaler lane count")?;
    let mut mins = Vec::new();
    let mut maxs = Vec::new();
    for _ in 0..dim {
        let (text, line) = lines.next("a scale lane")?;
        let mut tokens = text.split_whitespace();
        let (Some(min), Some(max), None) = (tokens.next(), tokens.next(), tokens.next()) else {
            return Err(CheckpointError::Parse {
                line,
                what: format!("expected `<min-bits> <max-bits>`, got {text:?}"),
            });
        };
        mins.push(f64_of(min, line)?);
        maxs.push(f64_of(max, line)?);
    }

    let (svm_header, line) = section(&mut lines, "svm")?;
    let [n_sv, sv_dim, rho] = svm_header[..] else {
        return Err(CheckpointError::Parse {
            line,
            what: "svm line takes `<n_sv> <dim> <rho-bits>`".to_string(),
        });
    };
    let n_sv = usize_of(n_sv, line, "support-vector count")?;
    let sv_dim = usize_of(sv_dim, line, "support-vector dimension")?;
    expect_dim(sv_dim, set, line, "support-vector dimension")?;
    let rho = f64_of(rho, line)?;
    let mut support_vectors = Vec::new();
    let mut dual_coefs = Vec::new();
    for _ in 0..n_sv {
        let (text, line) = lines.next("a support vector")?;
        let tokens: Vec<&str> = text.split_whitespace().collect();
        if tokens.len() != sv_dim + 1 {
            return Err(CheckpointError::Parse {
                line,
                what: format!(
                    "expected 1 coefficient + {sv_dim} components, got {} tokens",
                    tokens.len()
                ),
            });
        }
        dual_coefs.push(f64_of(tokens[0], line)?);
        let sv: Vec<f64> = tokens[1..]
            .iter()
            .map(|t| f64_of(t, line))
            .collect::<Result<_, _>>()?;
        support_vectors.push(sv);
    }

    let (end, line) = lines.next("the end marker")?;
    if end.split_whitespace().next() == Some("rff") {
        return Err(CheckpointError::Parse {
            line,
            what: "the `rff` (random-Fourier approximation) section is no longer supported; \
                   delete it, from this line up to the `end` marker, to load the exact model"
                .to_string(),
        });
    }
    if end != "end" {
        return Err(CheckpointError::Parse {
            line,
            what: format!("expected the `end` marker, got {end:?}"),
        });
    }

    Ok(FrappeModel::from_parts(
        set,
        Imputation::from_values(imputation),
        Scaler::from_bounds(mins, maxs),
        SvmModel::new(kernel, support_vectors, dual_coefs, rho),
    ))
}

/// Refuses a lane count that differs from the feature set's dimension: such
/// a model would load, then panic on its first verdict.
fn expect_dim(
    found: usize,
    set: FeatureSet,
    line: usize,
    what: &str,
) -> Result<(), CheckpointError> {
    if found == set.dim() {
        return Ok(());
    }
    Err(CheckpointError::Parse {
        line,
        what: format!(
            "{what} {found} does not match the feature set's {}",
            set.dim()
        ),
    })
}

// ---------------------------------------------------------------------------
// filesystem
// ---------------------------------------------------------------------------

/// Writes a checkpoint atomically: renders with [`write_model`], writes a
/// sibling `*.tmp` file, then renames it over `path`.
pub fn save_model(path: &Path, model: &FrappeModel) -> Result<(), CheckpointError> {
    let text = write_model(model);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, &text)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and parses a checkpoint written by [`save_model`].
pub fn load_model(path: &Path) -> Result<FrappeModel, CheckpointError> {
    parse_model(&fs::read_to_string(path)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use frappe::{AggregationFeatures, AppFeatures, OnDemandFeatures};
    use osn_types::ids::AppId;

    fn row(malicious: bool, app: u64) -> AppFeatures {
        AppFeatures {
            app: AppId(app),
            on_demand: OnDemandFeatures {
                has_category: Some(!malicious),
                has_company: Some(!malicious),
                has_description: Some(!malicious),
                has_profile_posts: Some(!malicious),
                permission_count: Some(if malicious { 1 } else { 6 }),
                client_id_mismatch: Some(malicious),
                redirect_wot_score: Some(if malicious { -1.0 } else { 94.0 }),
            },
            aggregation: AggregationFeatures {
                name_matches_known_malicious: malicious,
                external_link_ratio: Some(if malicious { 1.0 } else { 0.0 }),
            },
        }
    }

    pub(crate) fn tiny_model(set: FeatureSet) -> FrappeModel {
        let samples: Vec<AppFeatures> =
            (0..4).flat_map(|i| [row(false, i), row(true, i)]).collect();
        let labels: Vec<bool> = (0..4).flat_map(|_| [false, true]).collect();
        FrappeModel::train(&samples, &labels, set, None)
    }

    #[test]
    fn roundtrip_is_byte_identical_and_bit_equal() {
        for set in [
            FeatureSet::Full,
            FeatureSet::Lite,
            FeatureSet::Robust,
            FeatureSet::Single(FeatureId::WotScore),
        ] {
            let model = tiny_model(set);
            let text = write_model(&model);
            let reloaded = parse_model(&text).expect("parses back");
            assert_eq!(write_model(&reloaded), text, "byte-identical re-render");
            for i in 0..6 {
                for malicious in [false, true] {
                    let r = row(malicious, i);
                    assert_eq!(
                        model.decision_value(&r).to_bits(),
                        reloaded.decision_value(&r).to_bits(),
                        "bit-equal decision values ({set:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn tampered_schema_hash_is_refused_with_a_typed_error() {
        let text = write_model(&tiny_model(FeatureSet::Full));
        let tampered = text.replacen(
            &format!("schema {:016x}", catalog::schema_hash()),
            &format!("schema {:016x}", catalog::schema_hash() ^ 1),
            1,
        );
        match parse_model(&tampered) {
            Err(CheckpointError::SchemaMismatch { expected, found }) => {
                assert_eq!(expected, catalog::schema_hash());
                assert_eq!(found, catalog::schema_hash() ^ 1);
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_text_reports_the_offending_line() {
        match parse_model("not a checkpoint") {
            Err(CheckpointError::UnsupportedVersion { found }) => {
                assert_eq!(found, "not a checkpoint");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let text = write_model(&tiny_model(FeatureSet::Robust));
        let truncated: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        match parse_model(&truncated) {
            Err(CheckpointError::Parse { line, .. }) => assert_eq!(line, 5),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn unknown_feature_set_and_kernel_are_parse_errors() {
        let text = write_model(&tiny_model(FeatureSet::Full));
        let bad_set = text.replacen("set full", "set turbo", 1);
        assert!(matches!(
            parse_model(&bad_set),
            Err(CheckpointError::Parse { line: 3, .. })
        ));
        let bad_kernel = text
            .lines()
            .map(|l| {
                if l.starts_with("kernel ") {
                    "kernel quantum".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        assert!(matches!(
            parse_model(&bad_kernel),
            Err(CheckpointError::Parse { line: 4, .. })
        ));
    }

    /// `text` with the line starting `prefix` replaced by `line`.
    fn with_line(text: &str, prefix: &str, line: &str) -> String {
        let mut hit = false;
        let out: String = text
            .lines()
            .map(|l| {
                if !hit && l.starts_with(prefix) {
                    hit = true;
                    format!("{line}\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(hit, "no line starts with {prefix:?}");
        out
    }

    fn parse_error_line(text: &str) -> usize {
        match parse_model(text) {
            Err(CheckpointError::Parse { line, .. }) => line,
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn forged_counts_fail_without_allocating_for_them() {
        let text = write_model(&tiny_model(FeatureSet::Full));
        let imp = text
            .lines()
            .position(|l| l.starts_with("imputation "))
            .unwrap()
            + 1;
        for count in ["1000000000000000000", "1099511627776"] {
            // The imputation entries run out long before the count does.
            let forged = with_line(&text, "imputation ", &format!("imputation {count}"));
            assert!(parse_error_line(&forged) > imp);

            let forged = with_line(&text, "svm ", &{
                let header = text.lines().find(|l| l.starts_with("svm ")).unwrap();
                let rest: Vec<&str> = header.split_whitespace().skip(2).collect();
                format!("svm {count} {}", rest.join(" "))
            });
            // Support vectors run out: the `end` line is not a vector.
            let end = text.lines().count();
            assert_eq!(parse_error_line(&forged), end);
        }
        // A scaler lane count from the file must match the feature set
        // before any lane is read.
        let scaler = text.lines().position(|l| l.starts_with("scaler ")).unwrap() + 1;
        let forged = with_line(&text, "scaler ", "scaler 1000000000000000000");
        assert_eq!(parse_error_line(&forged), scaler);
    }

    #[test]
    fn lane_counts_that_differ_from_the_feature_set_are_refused_at_load() {
        let text = write_model(&tiny_model(FeatureSet::Full));
        let dim = FeatureSet::Full.dim();

        // One scale lane too few: refused on the `scaler` line instead of
        // panicking with a dimension mismatch on the first verdict.
        let scaler = text.lines().position(|l| l.starts_with("scaler ")).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[scaler] = format!("scaler {}", dim - 1);
        lines.remove(scaler + 1);
        let short = lines.join("\n") + "\n";
        assert_eq!(parse_error_line(&short), scaler + 1);

        // Support vectors one component short, self-consistently so: the
        // header and every row agree with each other but not with the set.
        let svm = text.lines().position(|l| l.starts_with("svm ")).unwrap();
        let lines: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let tokens: Vec<&str> = l.split_whitespace().collect();
                if i == svm {
                    format!("svm {} {} {}", tokens[1], dim - 1, tokens[3])
                } else if i > svm && l != "end" {
                    tokens[..tokens.len() - 1].join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect();
        let narrow = lines.join("\n") + "\n";
        assert_eq!(parse_error_line(&narrow), svm + 1);

        // A dimension that would overflow the row-width arithmetic.
        let huge = with_line(&text, "svm ", &{
            let t: Vec<&str> = lines[svm].split_whitespace().collect();
            format!("svm {} {} {}", t[1], usize::MAX, t[3])
        });
        assert_eq!(parse_error_line(&huge), svm + 1);
    }

    #[test]
    fn truncation_and_bit_flips_never_panic() {
        let model = tiny_model(FeatureSet::Full);
        let text = write_model(&model);
        for cut in 0..text.len() {
            let result = parse_model(&text[..cut]);
            // Only dropping the final newline leaves a whole checkpoint.
            assert_eq!(result.is_ok(), cut == text.len() - 1, "cut at byte {cut}");
        }
        let probe = row(true, 0);
        let mut bytes = text.clone().into_bytes();
        for i in 0..bytes.len() {
            for bit in [0x01, 0x08, 0x20] {
                bytes[i] ^= bit;
                if let Ok(flipped) = std::str::from_utf8(&bytes) {
                    if let Ok(m) = parse_model(flipped) {
                        // Whatever loads must also score.
                        m.decision_value(&probe);
                    }
                }
                bytes[i] ^= bit;
            }
        }
    }
}
