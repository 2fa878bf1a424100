//! The write-ahead log.
//!
//! Every change made by a transaction is appended as a [`WalRecord`], and a
//! `Commit` record carrying the commit sequence number (and a wallclock
//! timestamp) seals the transaction. The asynchronous **log capture**
//! process (paper §5's DPropR analogue) reads this log to populate the base
//! delta tables — exactly the design the paper's prototype uses instead of
//! triggers, because only at commit is the serialization order known.
//!
//! Records are stored encoded (`[len u32][crc32 u32][payload]`) in an
//! append-only byte buffer; readers decode on the way out, so the binary
//! path is exercised continuously. [`Wal::recover`] replays a prefix of a
//! (possibly torn) log.

use crate::codec;
use parking_lot::Mutex;
use rolljoin_common::{ColumnType, Csn, Error, Result, Schema, TableId, Tuple, TxnId};

/// Log sequence number: index of a record in the log.
pub type Lsn = u64;

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction start. No longer written: recovery reads the highest
    /// transaction id off the records a transaction does log, and capture
    /// never needed it. Still decoded, so older images replay.
    Begin { txn: TxnId },
    /// One tuple inserted into a table.
    Insert {
        txn: TxnId,
        table: TableId,
        tuple: Tuple,
    },
    /// One tuple (one copy) deleted from a table.
    Delete {
        txn: TxnId,
        table: TableId,
        tuple: Tuple,
    },
    /// Transaction commit; `csn` is the commit sequence number and
    /// `wallclock_micros` the real time, mirroring the unit-of-work table's
    /// two notions of time (paper §5).
    Commit {
        txn: TxnId,
        csn: Csn,
        wallclock_micros: u64,
    },
    /// Transaction abort (its changes must be ignored by capture). A
    /// transaction that logged nothing aborts without one.
    Abort { txn: TxnId },
    /// DDL: a table of the given kind was created. Logged so recovery can
    /// rebuild the catalog.
    CreateTable {
        id: TableId,
        name: String,
        schema: Schema,
        kind: TableKind,
    },
    /// DDL: a secondary index was created on a base table column.
    CreateIndex { table: TableId, col: u32 },
    /// DDL: a keyed time-range index was created on a base table's delta
    /// store column. Logged so recovery re-creates the index before
    /// capture replay back-fills its postings.
    CreateDeltaIndex { table: TableId, col: u32 },
    /// `count` copies of one tuple inserted (`count > 0`) or deleted
    /// (`count < 0`) in a table — the consolidated form `roll_to` emits
    /// when installing per-key net counts, replacing `|count|` individual
    /// `Insert`/`Delete` records.
    Apply {
        txn: TxnId,
        table: TableId,
        count: i64,
        tuple: Tuple,
    },
}

/// What a catalog entry holds, whether its writes are logged, and whether
/// capture stages them. Logged as its discriminant byte in
/// [`WalRecord::CreateTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// A base table: capture stages every committed change in its delta
    /// store, which views read. (A record that predates view-owned tables
    /// logged every MV and control table this way.)
    Base = 0,
    /// A view delta table: timestamped change records, never logged
    /// row by row.
    ViewDelta = 1,
    /// A table a view maintains whose contents recovery must replay (the
    /// control table, a summary table, a union's MV): logged and recovered
    /// like a base table, but with no delta store, because no view reads
    /// its history. (A record that predates derived tables logged every
    /// view's MV this way.)
    ViewOwned = 2,
    /// A table whose contents are a function of logged state — a view's
    /// MV, which is the view at its logged materialization time: read,
    /// written and locked like a view-owned table, but no write to it
    /// reaches the log. Recovery registers it empty; its owner rebuilds it.
    Derived = 3,
}

impl TableKind {
    fn from_byte(b: u8) -> Result<TableKind> {
        Ok(match b {
            0 => TableKind::Base,
            1 => TableKind::ViewDelta,
            2 => TableKind::ViewOwned,
            3 => TableKind::Derived,
            x => return Err(Error::WalCorrupt(format!("unknown table kind {x}"))),
        })
    }
}

const TAG_BEGIN: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_CREATE_TABLE: u8 = 6;
const TAG_CREATE_INDEX: u8 = 7;
const TAG_APPLY: u8 = 8;
const TAG_CREATE_DELTA_INDEX: u8 = 9;

/// Append the payload of a [`WalRecord::Apply`] built from its parts, so a
/// batch of counts is logged without cloning each tuple into a record.
pub(crate) fn put_apply(buf: &mut Vec<u8>, txn: TxnId, table: TableId, count: i64, tuple: &Tuple) {
    buf.push(TAG_APPLY);
    codec::put_varint(buf, txn.0);
    codec::put_varint(buf, u64::from(table.0));
    codec::put_ivarint(buf, count);
    codec::put_tuple(buf, tuple);
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    codec::put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &[u8], pos: &mut usize) -> Result<String> {
    let len = codec::get_varint(buf, pos)? as usize;
    let end = *pos + len;
    let bytes = buf
        .get(*pos..end)
        .ok_or_else(|| Error::WalCorrupt("truncated string".into()))?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::WalCorrupt("invalid utf-8".into()))
}

fn type_tag(t: ColumnType) -> u8 {
    match t {
        ColumnType::Bool => 0,
        ColumnType::Int => 1,
        ColumnType::Float => 2,
        ColumnType::Str => 3,
    }
}

fn type_from_tag(t: u8) -> Result<ColumnType> {
    Ok(match t {
        0 => ColumnType::Bool,
        1 => ColumnType::Int,
        2 => ColumnType::Float,
        3 => ColumnType::Str,
        x => return Err(Error::WalCorrupt(format!("unknown column type tag {x}"))),
    })
}

impl WalRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::Insert { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::Commit { txn, .. }
            | WalRecord::Abort { txn }
            | WalRecord::Apply { txn, .. } => *txn,
            WalRecord::CreateTable { .. }
            | WalRecord::CreateIndex { .. }
            | WalRecord::CreateDeltaIndex { .. } => TxnId(0),
        }
    }

    /// Encode the payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        self.encode_into(&mut buf);
        buf
    }

    /// Append the payload (without framing) to `buf`.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { txn } => {
                buf.push(TAG_BEGIN);
                codec::put_varint(buf, txn.0);
            }
            WalRecord::Insert { txn, table, tuple } => {
                buf.push(TAG_INSERT);
                codec::put_varint(buf, txn.0);
                codec::put_varint(buf, u64::from(table.0));
                codec::put_tuple(buf, tuple);
            }
            WalRecord::Delete { txn, table, tuple } => {
                buf.push(TAG_DELETE);
                codec::put_varint(buf, txn.0);
                codec::put_varint(buf, u64::from(table.0));
                codec::put_tuple(buf, tuple);
            }
            WalRecord::Commit {
                txn,
                csn,
                wallclock_micros,
            } => {
                buf.push(TAG_COMMIT);
                codec::put_varint(buf, txn.0);
                codec::put_varint(buf, *csn);
                codec::put_varint(buf, *wallclock_micros);
            }
            WalRecord::Abort { txn } => {
                buf.push(TAG_ABORT);
                codec::put_varint(buf, txn.0);
            }
            WalRecord::CreateTable {
                id,
                name,
                schema,
                kind,
            } => {
                buf.push(TAG_CREATE_TABLE);
                codec::put_varint(buf, u64::from(id.0));
                put_string(buf, name);
                buf.push(*kind as u8);
                codec::put_varint(buf, schema.arity() as u64);
                for (col, ty) in schema.columns() {
                    put_string(buf, col);
                    buf.push(type_tag(*ty));
                }
            }
            WalRecord::CreateIndex { table, col } => {
                buf.push(TAG_CREATE_INDEX);
                codec::put_varint(buf, u64::from(table.0));
                codec::put_varint(buf, u64::from(*col));
            }
            WalRecord::CreateDeltaIndex { table, col } => {
                buf.push(TAG_CREATE_DELTA_INDEX);
                codec::put_varint(buf, u64::from(table.0));
                codec::put_varint(buf, u64::from(*col));
            }
            WalRecord::Apply {
                txn,
                table,
                count,
                tuple,
            } => put_apply(buf, *txn, *table, *count, tuple),
        }
    }

    /// Decode a payload produced by [`WalRecord::encode`].
    pub fn decode(buf: &[u8]) -> Result<WalRecord> {
        let mut pos = 0usize;
        let tag = *buf
            .first()
            .ok_or_else(|| Error::WalCorrupt("empty record".into()))?;
        pos += 1;
        let rec = match tag {
            TAG_BEGIN => WalRecord::Begin {
                txn: TxnId(codec::get_varint(buf, &mut pos)?),
            },
            TAG_INSERT | TAG_DELETE => {
                let txn = TxnId(codec::get_varint(buf, &mut pos)?);
                let table = TableId(codec::get_varint(buf, &mut pos)? as u32);
                let tuple = codec::decode_tuple_at(buf, &mut pos)?;
                if tag == TAG_INSERT {
                    WalRecord::Insert { txn, table, tuple }
                } else {
                    WalRecord::Delete { txn, table, tuple }
                }
            }
            TAG_COMMIT => WalRecord::Commit {
                txn: TxnId(codec::get_varint(buf, &mut pos)?),
                csn: codec::get_varint(buf, &mut pos)?,
                wallclock_micros: codec::get_varint(buf, &mut pos)?,
            },
            TAG_ABORT => WalRecord::Abort {
                txn: TxnId(codec::get_varint(buf, &mut pos)?),
            },
            TAG_CREATE_TABLE => {
                let id = TableId(codec::get_varint(buf, &mut pos)? as u32);
                let name = get_string(buf, &mut pos)?;
                let kind = TableKind::from_byte(
                    *buf.get(pos)
                        .ok_or_else(|| Error::WalCorrupt("truncated kind".into()))?,
                )?;
                pos += 1;
                let arity = codec::get_varint(buf, &mut pos)? as usize;
                if arity > 1 << 16 {
                    return Err(Error::WalCorrupt("implausible schema arity".into()));
                }
                let mut cols = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let col = get_string(buf, &mut pos)?;
                    let tag = *buf
                        .get(pos)
                        .ok_or_else(|| Error::WalCorrupt("truncated type".into()))?;
                    pos += 1;
                    cols.push((col, type_from_tag(tag)?));
                }
                WalRecord::CreateTable {
                    id,
                    name,
                    schema: Schema::new(cols),
                    kind,
                }
            }
            TAG_CREATE_INDEX => WalRecord::CreateIndex {
                table: TableId(codec::get_varint(buf, &mut pos)? as u32),
                col: codec::get_varint(buf, &mut pos)? as u32,
            },
            TAG_CREATE_DELTA_INDEX => WalRecord::CreateDeltaIndex {
                table: TableId(codec::get_varint(buf, &mut pos)? as u32),
                col: codec::get_varint(buf, &mut pos)? as u32,
            },
            TAG_APPLY => WalRecord::Apply {
                txn: TxnId(codec::get_varint(buf, &mut pos)?),
                table: TableId(codec::get_varint(buf, &mut pos)? as u32),
                count: codec::get_ivarint(buf, &mut pos)?,
                tuple: codec::decode_tuple_at(buf, &mut pos)?,
            },
            t => return Err(Error::WalCorrupt(format!("unknown record tag {t}"))),
        };
        if pos != buf.len() {
            return Err(Error::WalCorrupt("trailing bytes in record".into()));
        }
        Ok(rec)
    }
}

/// A log record decoded only as far as capture needs it. A change's tuple
/// stays encoded, so a change to a table capture does not stage is
/// skipped without decoding it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CaptureRecord<'a> {
    /// `count` copies of the encoded `tuple` inserted (`count > 0`) or
    /// deleted (`count < 0`) in `table`: an `Insert`, `Delete` or `Apply`.
    Change {
        txn: TxnId,
        table: TableId,
        count: i64,
        tuple: &'a [u8],
    },
    Commit {
        txn: TxnId,
        csn: Csn,
    },
    Abort {
        txn: TxnId,
    },
    /// DDL, and the `Begin` of an older image: nothing for capture to do.
    Other,
}

impl<'a> CaptureRecord<'a> {
    /// Decode the head of a payload produced by [`WalRecord::encode`].
    pub(crate) fn decode(buf: &'a [u8]) -> Result<CaptureRecord<'a>> {
        let tag = *buf
            .first()
            .ok_or_else(|| Error::WalCorrupt("empty record".into()))?;
        let mut pos = 1;
        Ok(match tag {
            TAG_INSERT | TAG_DELETE | TAG_APPLY => {
                let txn = TxnId(codec::get_varint(buf, &mut pos)?);
                let table = TableId(codec::get_varint(buf, &mut pos)? as u32);
                let count = match tag {
                    TAG_INSERT => 1,
                    TAG_DELETE => -1,
                    _ => codec::get_ivarint(buf, &mut pos)?,
                };
                CaptureRecord::Change {
                    txn,
                    table,
                    count,
                    tuple: &buf[pos..],
                }
            }
            TAG_COMMIT => CaptureRecord::Commit {
                txn: TxnId(codec::get_varint(buf, &mut pos)?),
                csn: codec::get_varint(buf, &mut pos)?,
            },
            TAG_ABORT => CaptureRecord::Abort {
                txn: TxnId(codec::get_varint(buf, &mut pos)?),
            },
            TAG_BEGIN | TAG_CREATE_TABLE | TAG_CREATE_INDEX | TAG_CREATE_DELTA_INDEX => {
                CaptureRecord::Other
            }
            t => return Err(Error::WalCorrupt(format!("unknown record tag {t}"))),
        })
    }
}

struct WalInner {
    bytes: Vec<u8>,
    /// Byte offset of each record's frame.
    offsets: Vec<usize>,
}

impl WalInner {
    /// Frame one encoded record: `len | crc | payload`.
    fn push_frame(&mut self, payload: &[u8], crc: u32) {
        self.offsets.push(self.bytes.len());
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(&crc.to_le_bytes());
        self.bytes.extend_from_slice(payload);
    }
}

/// The append-only log.
pub struct Wal {
    inner: Mutex<WalInner>,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal {
            inner: Mutex::new(WalInner {
                bytes: Vec::new(),
                offsets: Vec::new(),
            }),
        }
    }

    /// Append a record, returning its LSN.
    pub fn append(&self, rec: &WalRecord) -> Lsn {
        let payload = rec.encode();
        let crc = codec::crc32(&payload);
        let mut inner = self.inner.lock();
        let lsn = inner.offsets.len() as Lsn;
        inner.push_frame(&payload, crc);
        lsn
    }

    /// Append records back to back under one hold of the log mutex,
    /// returning the first one's LSN. The frames are byte-for-byte what
    /// one [`Wal::append`] per record would write.
    pub fn append_many(&self, recs: &[WalRecord]) -> Lsn {
        self.append_each(recs, |rec, buf| rec.encode_into(buf))
    }

    /// Append one record per item, `encode` writing each payload, returning
    /// the first one's LSN. Every frame is encoded and checksummed into one
    /// buffer before the log mutex is taken; under it the buffer is copied
    /// in once.
    pub(crate) fn append_each<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        mut encode: impl FnMut(T, &mut Vec<u8>),
    ) -> Lsn {
        let (mut bytes, mut frames) = (Vec::new(), Vec::new());
        for item in items {
            let frame = bytes.len();
            frames.push(frame);
            bytes.extend_from_slice(&[0; 8]);
            encode(item, &mut bytes);
            let len = (bytes.len() - frame - 8) as u32;
            let crc = codec::crc32(&bytes[frame + 8..]);
            bytes[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
            bytes[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        }
        let mut inner = self.inner.lock();
        let lsn = inner.offsets.len() as Lsn;
        let base = inner.bytes.len();
        inner.offsets.extend(frames.iter().map(|f| base + f));
        inner.bytes.extend_from_slice(&bytes);
        lsn
    }

    /// Number of records in the log.
    pub fn len(&self) -> Lsn {
        self.inner.lock().offsets.len() as Lsn
    }

    /// True iff the log has no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.inner.lock().bytes.len()
    }

    /// Decode and return up to `max` records starting at LSN `from`.
    pub fn read_from(&self, from: Lsn, max: usize) -> Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        self.scan_from(from, max, |payload| {
            out.push(WalRecord::decode(payload)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Pass the payload of each of up to `max` records from LSN `from` to
    /// `f`, in log order, returning how many it was given. Capture calls
    /// this to tail the log. Only the raw frames are copied under the log
    /// mutex (which every commit's [`Wal::append`] needs); each frame's
    /// CRC is checked after it is released, before `f` sees the payload.
    /// A failed check or an `Err` from `f` stops the scan.
    pub(crate) fn scan_from(
        &self,
        from: Lsn,
        max: usize,
        mut f: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<usize> {
        let frames = {
            let inner = self.inner.lock();
            let from = (from as usize).min(inner.offsets.len());
            let to = from.saturating_add(max).min(inner.offsets.len());
            if from == to {
                return Ok(0);
            }
            let end = inner.offsets.get(to).copied().unwrap_or(inner.bytes.len());
            inner.bytes[inner.offsets[from]..end].to_vec()
        };
        let (mut off, mut seen) = (0, 0);
        while off < frames.len() {
            let (payload, next) = Self::frame_payload(&frames, off)?;
            f(payload)?;
            off = next;
            seen += 1;
        }
        Ok(seen)
    }

    /// The CRC-checked payload of the frame at `off`, and the offset of
    /// the frame after it.
    fn frame_payload(bytes: &[u8], off: usize) -> Result<(&[u8], usize)> {
        let len_bytes = bytes
            .get(off..off + 4)
            .ok_or_else(|| Error::WalCorrupt("truncated frame length".into()))?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let crc_bytes = bytes
            .get(off + 4..off + 8)
            .ok_or_else(|| Error::WalCorrupt("truncated frame crc".into()))?;
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let payload = bytes
            .get(off + 8..off + 8 + len)
            .ok_or_else(|| Error::WalCorrupt("truncated frame payload".into()))?;
        if codec::crc32(payload) != crc {
            return Err(Error::WalCorrupt(format!("crc mismatch at offset {off}")));
        }
        Ok((payload, off + 8 + len))
    }

    fn decode_frame(bytes: &[u8], off: usize) -> Result<(WalRecord, usize)> {
        let (payload, next) = Self::frame_payload(bytes, off)?;
        Ok((WalRecord::decode(payload)?, next))
    }

    /// Snapshot the raw encoded bytes (for recovery tests / persistence).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.inner.lock().bytes.clone()
    }

    /// Replace this log's contents with the decodable prefix of an encoded
    /// image (recovery: the new engine continues appending where the old
    /// one stopped).
    pub fn replace_from_bytes(&self, bytes: &[u8]) -> Result<()> {
        let rebuilt = Wal::from_bytes(bytes)?;
        let mut mine = self.inner.lock();
        let theirs = rebuilt.inner.into_inner();
        mine.bytes = theirs.bytes;
        mine.offsets = theirs.offsets;
        Ok(())
    }

    /// Rebuild a log from an encoded image (the decodable prefix of it —
    /// a torn tail is dropped, as in [`Wal::recover`]), so an engine can
    /// continue appending where the old one stopped.
    pub fn from_bytes(bytes: &[u8]) -> Result<Wal> {
        let mut offsets = Vec::new();
        let mut off = 0usize;
        while off < bytes.len() {
            if off + 8 > bytes.len() {
                break;
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
            if off + 8 + len > bytes.len() {
                break;
            }
            Self::decode_frame(bytes, off)?; // validates CRC + payload
            offsets.push(off);
            off += 8 + len;
        }
        Ok(Wal {
            inner: Mutex::new(WalInner {
                bytes: bytes[..off].to_vec(),
                offsets,
            }),
        })
    }

    /// Replay an encoded log image, returning the decodable prefix of
    /// records. A torn tail (truncated final frame) ends the scan cleanly;
    /// a CRC mismatch inside the prefix is an error.
    pub fn recover(bytes: &[u8]) -> Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < bytes.len() {
            // A torn write can leave a partial frame at the tail.
            if off + 8 > bytes.len() {
                break;
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
            if off + 8 + len > bytes.len() {
                break;
            }
            match Self::decode_frame(bytes, off) {
                Ok((rec, next)) => {
                    out.push(rec);
                    off = next;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::tup;

    fn sample() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: TxnId(1) },
            WalRecord::Insert {
                txn: TxnId(1),
                table: TableId(2),
                tuple: tup![1, "a"],
            },
            WalRecord::Delete {
                txn: TxnId(1),
                table: TableId(2),
                tuple: tup![2, "b"],
            },
            WalRecord::Commit {
                txn: TxnId(1),
                csn: 17,
                wallclock_micros: 1_000_000,
            },
            WalRecord::Abort { txn: TxnId(2) },
            WalRecord::CreateDeltaIndex {
                table: TableId(2),
                col: 1,
            },
            WalRecord::Apply {
                txn: TxnId(3),
                table: TableId(2),
                count: -4,
                tuple: tup![3, "c"],
            },
        ]
    }

    #[test]
    fn record_codec_round_trip() {
        for rec in sample() {
            assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    #[test]
    fn append_then_read_from() {
        let wal = Wal::new();
        for rec in sample() {
            wal.append(&rec);
        }
        assert_eq!(wal.len(), 7);
        assert_eq!(wal.read_from(0, usize::MAX).unwrap(), sample());
        assert_eq!(
            wal.read_from(3, usize::MAX).unwrap(),
            sample()[3..].to_vec()
        );
        assert_eq!(wal.read_from(7, usize::MAX).unwrap(), vec![]);
        assert_eq!(wal.read_from(9, 2).unwrap(), vec![]);
    }

    #[test]
    fn append_many_writes_the_same_frames() {
        let one = Wal::new();
        for rec in sample() {
            one.append(&rec);
        }
        let many = Wal::new();
        many.append(&sample()[0]);
        assert_eq!(many.append_many(&sample()[1..]), 1);
        assert_eq!(many.snapshot_bytes(), one.snapshot_bytes());
        assert_eq!(many.read_from(2, 2).unwrap(), sample()[2..4].to_vec());
        assert_eq!(many.append_many(&[]), 7);
        assert_eq!(many.byte_len(), one.byte_len());
    }

    #[test]
    fn apply_frames_from_parts_match_records() {
        let counts = [(tup![1, "a"], 3), (tup![2, "b"], -1)];
        let records: Vec<WalRecord> = counts
            .iter()
            .map(|(tuple, count)| WalRecord::Apply {
                txn: TxnId(4),
                table: TableId(2),
                count: *count,
                tuple: tuple.clone(),
            })
            .collect();
        let (from_records, from_parts) = (Wal::new(), Wal::new());
        from_records.append_many(&records);
        from_parts.append_each(&counts, |(tuple, count), buf| {
            put_apply(buf, TxnId(4), TableId(2), *count, tuple)
        });
        assert_eq!(from_parts.snapshot_bytes(), from_records.snapshot_bytes());
        assert_eq!(from_parts.read_from(0, usize::MAX).unwrap(), records);
    }

    #[test]
    fn read_from_honours_the_record_limit() {
        let wal = Wal::new();
        for rec in sample() {
            wal.append(&rec);
        }
        assert_eq!(wal.read_from(1, 3).unwrap(), sample()[1..4].to_vec());
        assert_eq!(wal.read_from(5, 3).unwrap(), sample()[5..].to_vec());
        assert_eq!(wal.read_from(0, 0).unwrap(), vec![]);
    }

    #[test]
    fn recover_full_image() {
        let wal = Wal::new();
        for rec in sample() {
            wal.append(&rec);
        }
        let recs = Wal::recover(&wal.snapshot_bytes()).unwrap();
        assert_eq!(recs, sample());
    }

    #[test]
    fn recover_tolerates_torn_tail() {
        let wal = Wal::new();
        for rec in sample() {
            wal.append(&rec);
        }
        let bytes = wal.snapshot_bytes();
        // Chop mid-way through the final frame.
        let cut = bytes.len() - 3;
        let recs = Wal::recover(&bytes[..cut]).unwrap();
        assert_eq!(recs, sample()[..6].to_vec());
    }

    #[test]
    fn recover_detects_bitrot() {
        let wal = Wal::new();
        for rec in sample() {
            wal.append(&rec);
        }
        let mut bytes = wal.snapshot_bytes();
        // Flip a payload bit in the first record (offset 8 is its payload).
        bytes[9] ^= 0x40;
        assert!(Wal::recover(&bytes).is_err());
    }

    #[test]
    fn create_table_kind_round_trips() {
        let create = |kind| WalRecord::CreateTable {
            id: TableId(3),
            name: "v__mv".into(),
            schema: Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)]),
            kind,
        };
        for (kind, byte) in [
            (TableKind::Base, 0),
            (TableKind::ViewDelta, 1),
            (TableKind::ViewOwned, 2),
            (TableKind::Derived, 3),
        ] {
            let enc = create(kind).encode();
            // tag, id, name length, 5 name bytes, then the kind byte.
            assert_eq!(enc[8], byte, "{kind:?}");
            assert_eq!(WalRecord::decode(&enc).unwrap(), create(kind));
        }
        let mut enc = create(TableKind::Base).encode();
        enc[8] = 4;
        assert!(matches!(
            WalRecord::decode(&enc),
            Err(Error::WalCorrupt(msg)) if msg.contains("table kind 4")
        ));
    }

    #[test]
    fn capture_records_match_full_decode() {
        for rec in sample() {
            let enc = rec.encode();
            let head = CaptureRecord::decode(&enc).unwrap();
            let want = match &rec {
                WalRecord::Insert { txn, table, tuple } => Some((*txn, *table, 1, tuple)),
                WalRecord::Delete { txn, table, tuple } => Some((*txn, *table, -1, tuple)),
                WalRecord::Apply {
                    txn,
                    table,
                    count,
                    tuple,
                } => Some((*txn, *table, *count, tuple)),
                _ => None,
            };
            match (head, want) {
                (
                    CaptureRecord::Change {
                        txn,
                        table,
                        count,
                        tuple,
                    },
                    Some(want),
                ) => {
                    let got = codec::decode_tuple(tuple).unwrap();
                    assert_eq!((txn, table, count, &got), want);
                }
                (CaptureRecord::Commit { txn, csn }, None) => {
                    assert_eq!(
                        rec,
                        WalRecord::Commit {
                            txn,
                            csn,
                            wallclock_micros: 1_000_000
                        }
                    );
                }
                (CaptureRecord::Abort { txn }, None) => {
                    assert_eq!(rec, WalRecord::Abort { txn });
                }
                (CaptureRecord::Other, None) => assert!(matches!(
                    rec,
                    WalRecord::Begin { .. } | WalRecord::CreateDeltaIndex { .. }
                )),
                (head, want) => panic!("{rec:?} read as {head:?}, want {want:?}"),
            }
        }
        assert!(CaptureRecord::decode(&[]).is_err());
        assert!(CaptureRecord::decode(&[99]).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err());
        let mut enc = WalRecord::Begin { txn: TxnId(1) }.encode();
        enc.push(0);
        assert!(WalRecord::decode(&enc).is_err());
    }
}
