//! # imcat-ckpt — versioned, crash-safe checkpoint/resume for training state
//!
//! Production training runs get killed; a 3000-epoch run that dies at epoch
//! 2900 must not restart from scratch. This crate provides the binary
//! checkpoint format and the crash-safety discipline shared by the trainer,
//! the models, and the bench harness:
//!
//! * **Versioned container.** A [`Checkpoint`] is a list of named byte
//!   sections framed by a magic header (`IMCK`), a format version, the
//!   payload length, and an FNV-1a64 checksum. Truncated or corrupted files
//!   are detected and rejected as a whole — a checkpoint is never partially
//!   applied.
//! * **Atomic writes.** [`Checkpoint::save`] serializes to `<path>.tmp`,
//!   fsyncs, rotates the previous file to `<path>.prev`, renames the tmp file
//!   into place, and fsyncs the directory. A kill at any instant leaves
//!   either the new or the previous checkpoint loadable; [`Checkpoint::load`]
//!   falls back to `<path>.prev` when the primary file is missing or fails
//!   verification.
//! * **Bit-exact payloads.** [`Encoder`]/[`Decoder`] write fixed-width
//!   little-endian scalars; floats round-trip through raw bits, so restored
//!   state is bit-identical — including NaN payloads — which is what makes
//!   resumed training runs reproduce uninterrupted ones exactly.
//! * **Telemetry.** Saves and loads flow through `imcat-obs`
//!   (`ckpt.bytes_written`, `ckpt.save.seconds` / `ckpt.load.seconds`
//!   histograms, fallback events).
//!
//! Higher-level codecs for the training substrate live here too:
//! [`encode_store`]/[`restore_store`] for parameter tables,
//! [`encode_adam`]/[`restore_adam`] for the lazy Adam state (moments, global
//! step, per-row last-update steps), and [`encode_backbone_state`] for both.
//! A saved model has one format: the trainer's container, whose `model`
//! section is the model's own `RecModel::save_state` payload
//! (`imcat_core::trainer::{save_model, load_model}`); there is no
//! parameters-only file.

#![warn(missing_docs)]

mod artifact;

pub use artifact::Artifact;

use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};

use imcat_tensor::{Adam, ParamStore, Tensor};

/// File magic identifying an IMCAT checkpoint container.
pub const MAGIC: &[u8; 4] = b"IMCK";
/// Container format version.
pub const VERSION: u32 = 1;
/// Header size in bytes: magic + version + payload length + checksum.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// FNV-1a 64-bit hash, used as the container checksum. Not cryptographic —
/// it detects truncation and bit rot, which is all a local checkpoint needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// Append-only byte encoder with fixed-width little-endian primitives.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes encoding, returning the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` bit-exactly.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends an `f64` bit-exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Appends a length-prefixed `f64` slice bit-exactly.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Appends a tensor: rows, cols, then row-major `f32` bits.
    pub fn put_tensor(&mut self, t: &Tensor) {
        let (r, c) = t.shape();
        self.put_u32(r as u32);
        self.put_u32(c as u32);
        for &x in t.as_slice() {
            self.put_f32(x);
        }
    }
}

/// Cursor over bytes produced by [`Encoder`]. Every getter validates bounds
/// and returns `InvalidData` on malformed input instead of panicking.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad(format!(
                "checkpoint truncated: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f32` bit-exactly.
    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_bits(u32::from_le_bytes(self.take(4)?.try_into().unwrap())))
    }

    /// Reads an `f64` bit-exactly.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().unwrap())))
    }

    fn len_prefix(&mut self, elem_size: usize) -> io::Result<usize> {
        let n = self.u64()?;
        let n_usize = usize::try_from(n).map_err(|_| bad("oversized length"))?;
        // A length cannot legitimately exceed the bytes left in the buffer.
        let total = n_usize
            .checked_mul(elem_size)
            .ok_or_else(|| bad(format!("length {n} overflows checkpoint size")))?;
        if total > self.remaining() {
            return Err(bad(format!("length {n} exceeds remaining checkpoint bytes")));
        }
        Ok(n_usize)
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.len_prefix(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> io::Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| bad("non-UTF-8 string"))
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> io::Result<Vec<u64>> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32s(&mut self) -> io::Result<Vec<u32>> {
        let n = self.len_prefix(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a length-prefixed `f64` slice bit-exactly.
    pub fn f64s(&mut self) -> io::Result<Vec<f64>> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a tensor written by [`Encoder::put_tensor`].
    pub fn tensor(&mut self) -> io::Result<Tensor> {
        let r = self.u32()? as usize;
        let c = self.u32()? as usize;
        let elems = r.checked_mul(c).ok_or_else(|| bad("tensor shape overflow"))?;
        let total = elems.checked_mul(4).ok_or_else(|| bad("tensor shape overflow"))?;
        if total > self.remaining() {
            return Err(bad("tensor data exceeds remaining checkpoint bytes"));
        }
        let mut data = Vec::with_capacity(elems);
        for _ in 0..elems {
            data.push(self.f32()?);
        }
        Ok(Tensor::from_vec(r, c, data))
    }

    /// Asserts the buffer is fully consumed (guards against schema drift).
    pub fn finish(self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(bad(format!(
                "{} trailing bytes after checkpoint payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A named-section checkpoint container with a verified on-disk framing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// Creates an empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a named section.
    pub fn insert(&mut self, name: &str, bytes: Vec<u8>) {
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = bytes;
        } else {
            self.sections.push((name.to_string(), bytes));
        }
    }

    /// Section contents by name.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, b)| b.as_slice())
    }

    /// Section contents by name, as an `InvalidData` error when missing.
    pub fn require(&self, name: &str) -> io::Result<&[u8]> {
        self.get(name).ok_or_else(|| bad(format!("checkpoint missing section '{name}'")))
    }

    /// Section names in insertion order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Serializes header + payload + checksum into one buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Encoder::new();
        payload.put_u32(self.sections.len() as u32);
        for (name, bytes) in &self.sections {
            payload.put_str(name);
            payload.put_bytes(bytes);
        }
        let payload = payload.into_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and verifies a buffer written by [`Checkpoint::to_bytes`].
    /// Truncation, version mismatch, and checksum failures are all rejected
    /// up front — a checkpoint is applied whole or not at all.
    pub fn from_bytes(buf: &[u8]) -> io::Result<Self> {
        if buf.len() < HEADER_LEN {
            return Err(bad("checkpoint shorter than its header"));
        }
        if &buf[..4] != MAGIC {
            return Err(bad("not an IMCK checkpoint"));
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad(format!("unsupported checkpoint version {version}")));
        }
        let payload_len = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let checksum = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        let payload = &buf[HEADER_LEN..];
        if payload.len() as u64 != payload_len {
            return Err(bad(format!(
                "checkpoint payload truncated: header says {payload_len} bytes, file has {}",
                payload.len()
            )));
        }
        if fnv1a64(payload) != checksum {
            return Err(bad("checkpoint checksum mismatch"));
        }
        let mut dec = Decoder::new(payload);
        let n = dec.u32()? as usize;
        let mut sections = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = dec.str()?.to_string();
            let bytes = dec.bytes()?.to_vec();
            sections.push((name, bytes));
        }
        dec.finish()?;
        Ok(Self { sections })
    }

    /// Atomically writes the checkpoint to `path`, returning the bytes
    /// written. The sequence is: serialize to `<path>.tmp`, fsync, rotate any
    /// existing `<path>` to `<path>.prev`, rename the tmp file into place,
    /// fsync the directory. A kill at any point leaves `<path>` or
    /// `<path>.prev` as a complete, verifiable checkpoint.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<u64> {
        let path = path.as_ref();
        let sp = imcat_obs::span("ckpt.save.seconds");
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let bytes = self.to_bytes();
        let tmp = sibling(path, ".tmp");
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if path.exists() {
            // Keep the previous checkpoint loadable until the new one has
            // fully landed; rename-over would also be atomic, but an explicit
            // .prev lets a reader fall back after filesystem-level corruption
            // of the primary file, not just a mid-write kill.
            let _ = std::fs::rename(path, sibling(path, ".prev"));
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                // Persist both renames; ignore filesystems that refuse
                // directory fsync rather than failing the save.
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
        }
        drop(sp);
        if imcat_obs::enabled() {
            imcat_obs::counter_add("ckpt.saves", 1);
            imcat_obs::counter_add("ckpt.bytes_written", bytes.len() as u64);
        }
        Ok(bytes.len() as u64)
    }

    /// Loads and verifies the checkpoint at `path`; when the primary file is
    /// missing, truncated, or corrupted, falls back to `<path>.prev` (the
    /// previous checkpoint) before giving up. The returned error is the
    /// primary file's when both fail, `NotFound` when neither exists.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let _sp = imcat_obs::span("ckpt.load.seconds");
        let primary = Self::load_one(path);
        match primary {
            Ok(ck) => Ok(ck),
            Err(primary_err) => {
                let prev = sibling(path, ".prev");
                match Self::load_one(&prev) {
                    Ok(ck) => {
                        if imcat_obs::enabled() {
                            imcat_obs::counter_add("ckpt.fallbacks", 1);
                            imcat_obs::emit(
                                "checkpoint_fallback",
                                vec![
                                    ("path", imcat_obs::Json::Str(path.display().to_string())),
                                    ("error", imcat_obs::Json::Str(primary_err.to_string())),
                                ],
                            );
                        }
                        Ok(ck)
                    }
                    Err(prev_err) => {
                        if primary_err.kind() == ErrorKind::NotFound
                            && prev_err.kind() == ErrorKind::NotFound
                        {
                            Err(primary_err)
                        } else if primary_err.kind() == ErrorKind::NotFound {
                            Err(prev_err)
                        } else {
                            Err(primary_err)
                        }
                    }
                }
            }
        }
    }

    fn load_one(path: &Path) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// Section holding the committed generation pointer (a single `u64`).
///
/// Generation-versioned containers let a live artifact be *staged* next to
/// the one being served: a background rebuild writes its sections under a
/// `gen<N>.` prefix (one atomic [`Checkpoint::save`]), and a second save
/// flips this pointer and prunes the superseded generation. A crash between
/// the two saves leaves the pointer on the old generation, so recovery
/// always lands on a complete, consistent artifact — never a half-swapped
/// one.
pub const SEC_GENERATION: &str = "generation.current";

/// `gen<g>.` prefix parser: `Some((g, rest))` for generation-tagged section
/// names, `None` for bare (legacy / generation-0) names.
fn parse_gen(name: &str) -> Option<(u64, &str)> {
    let rest = name.strip_prefix("gen")?;
    let dot = rest.find('.')?;
    let g: u64 = rest[..dot].parse().ok()?;
    Some((g, &rest[dot + 1..]))
}

impl Checkpoint {
    /// The generation-tagged name of `name` under generation `gen`.
    pub fn gen_name(gen: u64, name: &str) -> String {
        format!("gen{gen}.{name}")
    }

    /// The committed generation pointer, if the container carries one.
    /// Containers written before generations existed have none and resolve
    /// through their bare section names.
    pub fn generation(&self) -> io::Result<Option<u64>> {
        let Some(bytes) = self.get(SEC_GENERATION) else {
            return Ok(None);
        };
        let mut dec = Decoder::new(bytes);
        let g = dec.u64()?;
        dec.finish()?;
        Ok(Some(g))
    }

    /// Sets the committed generation pointer (does not prune; see
    /// [`Checkpoint::commit_generation`]).
    pub fn set_generation(&mut self, gen: u64) {
        let mut enc = Encoder::new();
        enc.put_u64(gen);
        self.insert(SEC_GENERATION, enc.into_bytes());
    }

    /// Inserts every section of `staged` under the `gen<g>.` prefix, leaving
    /// the committed generation untouched. This is the first half of a
    /// two-save swap: stage + save, then [`Checkpoint::commit_generation`] +
    /// save. A kill between the saves is recovered by resolution ignoring
    /// uncommitted generations.
    pub fn stage_generation(&mut self, gen: u64, staged: &Checkpoint) {
        for (name, bytes) in &staged.sections {
            self.insert(&Self::gen_name(gen, name), bytes.clone());
        }
    }

    /// Commits generation `gen`: flips the pointer and prunes every section
    /// belonging to another generation, plus any bare section shadowed by
    /// the committed generation (the pre-generation layout it supersedes).
    pub fn commit_generation(&mut self, gen: u64) {
        self.set_generation(gen);
        let shadowed: Vec<String> = self
            .sections
            .iter()
            .filter_map(|(n, _)| parse_gen(n))
            .filter(|&(g, _)| g == gen)
            .map(|(_, rest)| rest.to_string())
            .collect();
        self.sections.retain(|(name, _)| {
            if name == SEC_GENERATION {
                return true;
            }
            match parse_gen(name) {
                Some((g, _)) => g == gen,
                None => !shadowed.iter().any(|s| s == name),
            }
        });
    }

    /// Resolves `name` through the committed generation: the committed
    /// `gen<g>.name` section when a pointer exists and the section is
    /// present, the bare `name` otherwise. Staged-but-uncommitted
    /// generations are invisible here by construction.
    pub fn resolve(&self, name: &str) -> Option<&[u8]> {
        if let Ok(Some(g)) = self.generation() {
            if let Some(bytes) = self.get(&Self::gen_name(g, name)) {
                return Some(bytes);
            }
        }
        self.get(name)
    }

    /// [`Checkpoint::resolve`] as an `InvalidData` error when missing.
    pub fn require_resolved(&self, name: &str) -> io::Result<&[u8]> {
        self.resolve(name)
            .ok_or_else(|| bad(format!("checkpoint missing resolvable section '{name}'")))
    }
}

/// `<path><suffix>` as a sibling file (`foo.ckpt` → `foo.ckpt.tmp`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Encodes every parameter of `store` (name, shape, values) bit-exactly.
pub fn encode_store(store: &ParamStore) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(store.len() as u32);
    for (_, p) in store.iter() {
        enc.put_str(p.name());
        enc.put_tensor(p.value());
    }
    enc.into_bytes()
}

/// Restores parameter values captured by [`encode_store`] into `store`.
/// Strict by design: parameter count, order, names, and shapes must all
/// match the identically-constructed model, otherwise nothing is applied.
pub fn restore_store(store: &mut ParamStore, bytes: &[u8]) -> io::Result<()> {
    let mut dec = Decoder::new(bytes);
    let n = dec.u32()? as usize;
    if n != store.len() {
        return Err(bad(format!("checkpoint has {n} parameters, model has {}", store.len())));
    }
    // Decode (and thereby verify) everything before touching the store.
    let mut loaded = Vec::with_capacity(n);
    for _ in 0..n {
        let name = dec.str()?.to_string();
        let value = dec.tensor()?;
        loaded.push((name, value));
    }
    dec.finish()?;
    let ids: Vec<_> = store.iter().map(|(id, p)| (id, p.name().to_string())).collect();
    for ((id, have), (want, value)) in ids.iter().zip(&loaded) {
        if have != want {
            return Err(bad(format!(
                "checkpoint parameter '{want}' does not match model '{have}'"
            )));
        }
        if store.value(*id).shape() != value.shape() {
            return Err(bad(format!(
                "shape mismatch for '{want}': checkpoint {:?}, model {:?}",
                value.shape(),
                store.value(*id).shape()
            )));
        }
    }
    for ((id, _), (_, value)) in ids.iter().zip(loaded) {
        *store.value_mut(*id) = value;
    }
    Ok(())
}

/// Encodes the lazy Adam state: global step, first/second moments, and the
/// per-row last-update steps that drive the `beta^Δt` stale-row decay.
pub fn encode_adam(adam: &Adam) -> Vec<u8> {
    let (m, v, last, t) = adam.export_state();
    let mut enc = Encoder::new();
    enc.put_u64(t);
    enc.put_u32(m.len() as u32);
    for ((mi, vi), li) in m.iter().zip(v).zip(last) {
        enc.put_tensor(mi);
        enc.put_tensor(vi);
        enc.put_u64s(li);
    }
    enc.into_bytes()
}

/// Restores optimizer state captured by [`encode_adam`] into an Adam
/// instance built over the identically-shaped parameter store.
pub fn restore_adam(adam: &mut Adam, bytes: &[u8]) -> io::Result<()> {
    let mut dec = Decoder::new(bytes);
    let t = dec.u64()?;
    let n = dec.u32()? as usize;
    let mut m = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(n);
    let mut last = Vec::with_capacity(n);
    for _ in 0..n {
        m.push(dec.tensor()?);
        v.push(dec.tensor()?);
        last.push(dec.u64s()?);
    }
    dec.finish()?;
    adam.restore_state(m, v, last, t).map_err(bad)
}

/// Encodes a backbone's full mutable training state: parameters plus
/// optimizer. This is the whole state for the factorization/GNN backbones —
/// their samplers are deterministic functions of the dataset.
pub fn encode_backbone_state(store: &ParamStore, adam: &Adam) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(&encode_store(store));
    enc.put_bytes(&encode_adam(adam));
    enc.into_bytes()
}

/// Restores state captured by [`encode_backbone_state`].
pub fn restore_backbone_state(
    store: &mut ParamStore,
    adam: &mut Adam,
    bytes: &[u8],
) -> io::Result<()> {
    let mut dec = Decoder::new(bytes);
    let store_bytes = dec.bytes()?;
    let adam_bytes = dec.bytes()?;
    dec.finish()?;
    restore_store(store, store_bytes)?;
    restore_adam(adam, adam_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ck = Checkpoint::new();
        let mut enc = Encoder::new();
        enc.put_u64(42);
        enc.put_f64(2.5);
        enc.put_str("hello");
        ck.insert("alpha", enc.into_bytes());
        ck.insert("beta", vec![1, 2, 3]);
        ck
    }

    #[test]
    fn container_roundtrip() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ck, back);
        let mut dec = Decoder::new(back.get("alpha").unwrap());
        assert_eq!(dec.u64().unwrap(), 42);
        assert_eq!(dec.f64().unwrap(), 2.5);
        assert_eq!(dec.str().unwrap(), "hello");
        dec.finish().unwrap();
    }

    #[test]
    fn insert_replaces_existing_section() {
        let mut ck = sample();
        ck.insert("beta", vec![9]);
        assert_eq!(ck.get("beta"), Some(&[9u8][..]));
        assert_eq!(ck.section_names().count(), 2);
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn corruption_is_rejected_everywhere() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Checkpoint::from_bytes(&bad).is_err(), "flip at byte {i} was accepted");
        }
    }

    #[test]
    fn decoder_rejects_oversized_length_prefix() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let bytes = enc.into_bytes();
        assert!(Decoder::new(&bytes).bytes().is_err());
        assert!(Decoder::new(&bytes).u64s().is_err());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        let mut enc = Encoder::new();
        for v in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE, 1.5e-40] {
            enc.put_f32(v);
        }
        enc.put_f64(f64::NEG_INFINITY);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        for v in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE, 1.5e-40] {
            assert_eq!(dec.f32().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(dec.f64().unwrap().to_bits(), f64::NEG_INFINITY.to_bits());
    }

    #[test]
    fn save_load_and_prev_fallback() {
        let dir = std::env::temp_dir().join(format!("imck_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");

        let first = sample();
        first.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), first);

        let mut second = sample();
        second.insert("gamma", vec![7, 7]);
        second.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        // The first checkpoint was rotated to .prev.
        assert_eq!(Checkpoint::load_one(&sibling(&path, ".prev")).unwrap(), first);

        // Truncate the primary mid-"write": the loader falls back to .prev.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), first);

        // Remove both: NotFound.
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(sibling(&path, ".prev")).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap_err().kind(), ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_roundtrip_and_strictness() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(2, 2, vec![1.0, -2.0, f32::NAN, 0.5]));
        let b = store.add("b", Tensor::scalar(7.0));
        let bytes = encode_store(&store);

        let mut dst = ParamStore::new();
        let da = dst.add("a", Tensor::zeros(2, 2));
        let db = dst.add("b", Tensor::scalar(0.0));
        restore_store(&mut dst, &bytes).unwrap();
        for (src_id, dst_id) in [(a, da), (b, db)] {
            let want: Vec<u32> =
                store.value(src_id).as_slice().iter().map(|x| x.to_bits()).collect();
            let got: Vec<u32> = dst.value(dst_id).as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(want, got);
        }

        // Wrong name, wrong shape, wrong count: all rejected, store untouched.
        let mut wrong_name = ParamStore::new();
        wrong_name.add("x", Tensor::zeros(2, 2));
        wrong_name.add("b", Tensor::scalar(0.0));
        assert!(restore_store(&mut wrong_name, &bytes).is_err());

        let mut wrong_shape = ParamStore::new();
        let ws = wrong_shape.add("a", Tensor::zeros(1, 4));
        wrong_shape.add("b", Tensor::scalar(0.0));
        assert!(restore_store(&mut wrong_shape, &bytes).is_err());
        assert_eq!(wrong_shape.value(ws).as_slice(), &[0.0; 4]);

        let mut wrong_count = ParamStore::new();
        wrong_count.add("a", Tensor::zeros(2, 2));
        assert!(restore_store(&mut wrong_count, &bytes).is_err());
    }

    #[test]
    fn adam_roundtrip_preserves_moments_and_steps() {
        use imcat_tensor::{AdamConfig, Tape};
        let mut store = ParamStore::new();
        let id = store.add("emb", Tensor::from_vec(3, 2, vec![0.5; 6]));
        let mut adam = Adam::new(AdamConfig::default(), &store);
        // Drive a few steps (each touching one embedding row) so moments and
        // last-update steps are non-trivial.
        for step in 0..3u32 {
            let mut tape = Tape::new();
            let rows = tape.gather(&store, id, &[step % 3]);
            let loss = tape.sum_all(rows);
            tape.backward(loss, &mut store);
            adam.step(&mut store);
        }
        let bytes = encode_adam(&adam);

        let mut fresh = Adam::new(AdamConfig::default(), &store);
        restore_adam(&mut fresh, &bytes).unwrap();
        let (m0, v0, l0, t0) = adam.export_state();
        let (m1, v1, l1, t1) = fresh.export_state();
        assert_eq!(t0, t1);
        assert_eq!(l0, l1);
        for (a, b) in m0.iter().zip(m1).chain(v0.iter().zip(v1)) {
            let wa: Vec<u32> = a.as_slice().iter().map(|x| x.to_bits()).collect();
            let wb: Vec<u32> = b.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(wa, wb);
        }

        // Shape mismatch: rejected.
        let mut small_store = ParamStore::new();
        small_store.add("emb", Tensor::zeros(2, 2));
        let mut small = Adam::new(AdamConfig::default(), &small_store);
        assert!(restore_adam(&mut small, &bytes).is_err());
    }
}
