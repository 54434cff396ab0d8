//! Output checks: every report the benchmark receives is hashed and
//! compared with a digest pinned in `pins.txt`. A mismatch is a failed
//! operation, so a change that alters any report byte cannot pass as a
//! speed-up.

use std::collections::BTreeMap;

use turnroute_sim::report::write_json;
use turnroute_sim::SweepSeries;

/// 64-bit FNV-1a: small, stable across platforms and toolchains.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The canonical bytes of one series: the repository's own JSON
/// serializer applied to that series alone.
pub fn series_bytes(series: &SweepSeries) -> Vec<u8> {
    let mut out = Vec::new();
    write_json(std::slice::from_ref(series), &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Pinned digests by report name.
#[derive(Debug, Clone, Default)]
pub struct Pins(BTreeMap<String, u64>);

impl Pins {
    /// The digests compiled into the benchmark from `pins.txt`.
    pub fn embedded() -> Pins {
        Pins::parse(include_str!("../pins.txt"))
    }

    /// Parses `name hex-digest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Pins {
        let mut map = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((name, hex)) = line.split_once(' ') {
                if let Ok(d) = u64::from_str_radix(hex.trim(), 16) {
                    map.insert(name.to_owned(), d);
                }
            }
        }
        Pins(map)
    }

    /// Renders the pins in the `pins.txt` format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, d) in &self.0 {
            out.push_str(&format!("{name} {d:016x}\n"));
        }
        out
    }

    /// Pins `bytes` under `name`; an existing pin must agree.
    pub fn insert(&mut self, name: &str, bytes: &[u8]) -> Result<(), String> {
        let d = fnv1a(bytes);
        match self.0.insert(name.to_owned(), d) {
            Some(old) if old != d => Err(format!(
                "{name}: digest {d:016x} differs from {old:016x} computed another way"
            )),
            _ => Ok(()),
        }
    }

    /// Checks `bytes` against the pin for `name`.
    pub fn check(&self, name: &str, bytes: &[u8]) -> Result<(), String> {
        match self.0.get(name) {
            None => Err(format!("{name}: no pinned digest")),
            Some(&d) if d == fnv1a(bytes) => Ok(()),
            Some(&d) => Err(format!(
                "{name}: report digest {:016x} != pinned {d:016x}",
                fnv1a(bytes)
            )),
        }
    }

    /// How many digests are pinned.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn a_perturbed_report_fails_its_check() {
        let mut pins = Pins::default();
        let report = b"{\"series\": [1, 2, 3]}\n".to_vec();
        pins.insert("r", &report).unwrap();
        let pins = Pins::parse(&pins.render());
        assert!(pins.check("r", &report).is_ok());
        let mut perturbed = report.clone();
        perturbed[12] ^= 1;
        assert!(pins.check("r", &perturbed).is_err());
        assert!(pins.check("unknown", &report).is_err());
    }

    #[test]
    fn pinning_the_same_name_two_ways_must_agree() {
        let mut pins = Pins::default();
        pins.insert("r", b"x").unwrap();
        assert!(pins.insert("r", b"x").is_ok());
        assert!(pins.insert("r", b"y").is_err());
    }
}
