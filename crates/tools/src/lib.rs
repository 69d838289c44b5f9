//! # ulp-tools — command-line front-ends for the het-accel platform
//!
//! | binary | purpose |
//! |---|---|
//! | `uir-asm` | assemble textual UIR into a `.uir` image |
//! | `uir-dis` | disassemble a `.uir` image back to text |
//! | `uir-run` | run a program on a single core or the 4-core cluster |
//! | `het-sim` | simulate a benchmark offload on the coupled platform |
//!
//! This crate also defines the tiny on-disk **UIR image format** the tools
//! exchange:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "UIR1"
//! 4       4     u32 LE: text words (N)
//! 8       4     u32 LE: rodata bytes (M)
//! 12      4·N   instruction words, LE
//! 12+4N   M     rodata
//! ```

use std::error::Error;
use std::fmt;

use ulp_isa::{decode, Asm, Program};

/// Magic bytes of a UIR image.
pub const MAGIC: &[u8; 4] = b"UIR1";

/// Error produced while reading a UIR image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ImageError {
    /// The file does not start with the `UIR1` magic.
    BadMagic,
    /// The header claims more data than the file holds.
    Truncated,
    /// An instruction word failed to decode.
    BadWord {
        /// Word index within the text section.
        index: usize,
        /// The offending word.
        word: u32,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::BadMagic => f.write_str("not a UIR image (bad magic)"),
            ImageError::Truncated => f.write_str("truncated UIR image"),
            ImageError::BadWord { index, word } => {
                write!(f, "invalid instruction word {word:#010x} at index {index}")
            }
        }
    }
}

impl Error for ImageError {}

/// Serializes a program into the UIR image format.
#[must_use]
pub fn to_image(prog: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + prog.text_bytes() + prog.rodata().len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(prog.words().len() as u32).to_le_bytes());
    out.extend_from_slice(&(prog.rodata().len() as u32).to_le_bytes());
    for w in prog.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(prog.rodata());
    out
}

/// Deserializes a UIR image back into a [`Program`].
///
/// # Errors
///
/// Returns [`ImageError`] on malformed images.
pub fn from_image(bytes: &[u8]) -> Result<Program, ImageError> {
    if bytes.len() < 12 {
        return Err(ImageError::Truncated);
    }
    if &bytes[0..4] != MAGIC {
        return Err(ImageError::BadMagic);
    }
    let words = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    let rodata_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let need = 12 + words * 4 + rodata_len;
    if bytes.len() < need {
        return Err(ImageError::Truncated);
    }
    let mut asm = Asm::new();
    for i in 0..words {
        let off = 12 + i * 4;
        let word = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
        let insn = decode(word).map_err(|_| ImageError::BadWord { index: i, word })?;
        asm.insn(insn);
    }
    let rodata_start = 12 + words * 4;
    asm.add_rodata(&bytes[rodata_start..rodata_start + rodata_len]);
    asm.finish().map_err(|_| ImageError::Truncated)
}

/// Minimal command-line option scanner: `--key value` and `--flag` pairs
/// plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    opts: Vec<(String, Option<String>)>,
    /// Positional (non-option) arguments in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`-style input; `flags` lists the options
    /// that take no value.
    #[must_use]
    pub fn parse(args: impl Iterator<Item = String>, flags: &[&str]) -> Self {
        let mut out = Args::default();
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if flags.contains(&key) {
                    out.opts.push((key.to_owned(), None));
                } else {
                    out.opts.push((key.to_owned(), it.next()));
                }
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Value of `--key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `--key` was given (flag or valued).
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.opts.iter().any(|(k, _)| k == key)
    }

    /// Every value given for a repeatable `--key`.
    #[must_use]
    pub fn values(&self, key: &str) -> Vec<&str> {
        self.opts
            .iter()
            .filter(|(k, _)| k == key)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    /// Value of `--key` parsed as `f64`, or `default`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: expected a number, got `{v}`")),
        }
    }

    /// Value of `--key` parsed as `usize`, or `default`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: expected an integer, got `{v}`")),
        }
    }
}

/// Resolves a benchmark name (Table I spelling or shorthand).
///
/// # Errors
///
/// Returns the list of valid names when `name` is unknown.
pub fn parse_benchmark(name: &str) -> Result<ulp_kernels::Benchmark, String> {
    use ulp_kernels::Benchmark as B;
    Ok(match name.to_ascii_lowercase().as_str() {
        "matmul" => B::MatMul,
        "matmul-short" | "matmul (short)" => B::MatMulShort,
        "matmul-fixed" | "matmul (fixed)" => B::MatMulFixed,
        "strassen" => B::Strassen,
        "svm-linear" | "svm (linear)" => B::SvmLinear,
        "svm-poly" | "svm (poly)" => B::SvmPoly,
        "svm-rbf" | "svm (rbf)" => B::SvmRbf,
        "cnn" => B::Cnn,
        "cnn-approx" | "cnn (approx)" => B::CnnApprox,
        "hog" => B::Hog,
        other => {
            return Err(format!(
                "unknown benchmark `{other}`; choose one of: matmul, matmul-short, \
                 matmul-fixed, strassen, svm-linear, svm-poly, svm-rbf, cnn, cnn-approx, hog"
            ))
        }
    })
}

/// Resolves a core-model name.
///
/// # Errors
///
/// Returns the list of valid names when `name` is unknown.
pub fn parse_model(name: &str) -> Result<ulp_isa::CoreModel, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "or10n" => ulp_isa::CoreModel::or10n(),
        "m4" | "cortex-m4" => ulp_isa::CoreModel::cortex_m4(),
        "m3" | "cortex-m3" => ulp_isa::CoreModel::cortex_m3(),
        "baseline" | "risc" => ulp_isa::CoreModel::risc_baseline(),
        other => {
            return Err(format!(
                "unknown model `{other}`; choose or10n, m4, m3 or baseline"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_isa::prelude::*;

    fn sample_program() -> Program {
        let mut a = Asm::new();
        a.li(R1, 123456);
        a.mac(R2, R1, R1);
        a.halt();
        a.add_rodata(&[1, 2, 3, 4, 5]);
        a.finish().unwrap()
    }

    #[test]
    fn image_roundtrip() {
        let prog = sample_program();
        let img = to_image(&prog);
        let back = from_image(&img).unwrap();
        assert_eq!(back.insns(), prog.insns());
        assert_eq!(back.words(), prog.words());
        assert_eq!(back.rodata(), prog.rodata());
    }

    /// Image parsing never panics on arbitrary bytes, with or without a
    /// valid magic and a header whose counts fit the body; and a valid
    /// header whose body is cut short is rejected as truncated.
    #[test]
    fn from_image_is_total_and_rejects_truncated_bodies() {
        use ulp_rng::gen::byte_vec;
        let mut rng = ulp_rng::XorShiftRng::seed_from_u64(0x1A6E);
        let header = |words: u32, rodata: u32| {
            let mut img = MAGIC.to_vec();
            img.extend_from_slice(&words.to_le_bytes());
            img.extend_from_slice(&rodata.to_le_bytes());
            img
        };
        for _ in 0..2_000 {
            let mut bytes = byte_vec(&mut rng, 0..=256);
            if bytes.len() >= 4 && rng.gen_bool(0.5) {
                bytes[..4].copy_from_slice(MAGIC);
            }
            let _ = from_image(&bytes);

            // A self-consistent header over a random body: decodes or
            // reports the bad word, never panics.
            let (words, rodata) = (rng.gen_range(0u32..16), rng.gen_range(0u32..16));
            let body = (4 * words + rodata) as usize;
            let mut img = header(words, rodata);
            img.extend(byte_vec(&mut rng, body..=body));
            let _ = from_image(&img);

            // Fewer body bytes than the header claims.
            let words = rng.gen_range(1u32..64);
            let cut = rng.gen_range(0usize..16);
            let mut img = header(words, 0);
            img.resize(img.len() + (words as usize * 4).saturating_sub(cut + 1), 0);
            assert_eq!(from_image(&img), Err(ImageError::Truncated));
        }
    }

    #[test]
    fn image_errors() {
        assert_eq!(from_image(b"bogus"), Err(ImageError::Truncated));
        assert_eq!(
            from_image(b"NOPE\0\0\0\0\0\0\0\0"),
            Err(ImageError::BadMagic)
        );
        let mut img = to_image(&sample_program());
        img.truncate(img.len() - 3);
        assert_eq!(from_image(&img), Err(ImageError::Truncated));
        // Corrupt an instruction word (opcode 0xFF is invalid).
        let mut img = to_image(&sample_program());
        img[15] = 0xFF;
        assert!(matches!(
            from_image(&img),
            Err(ImageError::BadWord { index: 0, .. })
        ));
    }

    #[test]
    fn args_parsing() {
        let args = Args::parse(
            ["--model", "or10n", "file.s", "--trace", "--iters", "32"]
                .iter()
                .map(|s| (*s).to_owned()),
            &["trace"],
        );
        assert_eq!(args.get("model"), Some("or10n"));
        assert!(args.has("trace"));
        assert_eq!(args.get_usize("iters", 1).unwrap(), 32);
        assert_eq!(args.get_f64("missing", 2.5).unwrap(), 2.5);
        assert_eq!(args.positional, vec!["file.s"]);
        assert!(args.get_usize("model", 0).is_err());
    }

    #[test]
    fn benchmark_and_model_lookup() {
        assert_eq!(
            parse_benchmark("svm-rbf").unwrap(),
            ulp_kernels::Benchmark::SvmRbf
        );
        assert!(parse_benchmark("quicksort").is_err());
        assert_eq!(parse_model("M4").unwrap().name, "cortex-m4");
        assert!(parse_model("z80").is_err());
    }
}
