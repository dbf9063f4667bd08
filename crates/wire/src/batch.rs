//! Packet batches: the unit of work of the batched border-router pipeline.
//!
//! The paper's prototype reaches line rate by processing packets in
//! DPDK-style bursts, one burst per core (§V-B3). This module provides the
//! software analogue: a [`PacketBatch`] owns a burst of contiguous wire
//! buffers plus one *parsed-header slot* per packet, so the Fig. 7 header
//! is parsed exactly once per packet per batch and every later pipeline
//! stage (EphID decrypt, table lookups, MAC verify, replay filter) works
//! over the pre-parsed slots without re-touching the raw bytes.
//!
//! The batch deliberately lives in `apna-wire`: it is a wire-format
//! concern (bytes + parse state), while the verdicts that come out of
//! processing a batch live with the border router in `apna-core`.

use crate::header::{ApnaHeader, ReplayMode};

/// Parse state of one packet slot in a [`PacketBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsedSlot {
    /// Not parsed yet ([`PacketBatch::parse_headers`] has not run since
    /// this packet was pushed).
    Pending,
    /// Header parsed; the payload starts at `payload_start` in the buffer.
    Parsed {
        /// The parsed Fig. 7 header (plus nonce when the mode carries one).
        header: ApnaHeader,
        /// Byte offset where the payload begins.
        payload_start: usize,
    },
    /// The buffer failed header parsing (truncated / malformed).
    Malformed,
}

/// A burst of packets moving through the border-router pipeline together.
///
/// Buffers are owned (`Vec<u8>` each, contiguous per packet) so a batch
/// can be queued, handed across the simulator, or carried to another
/// thread without borrowing from the producer.
#[derive(Debug, Clone)]
pub struct PacketBatch {
    mode: ReplayMode,
    packets: Vec<Vec<u8>>,
    slots: Vec<ParsedSlot>,
}

impl PacketBatch {
    /// Creates an empty batch operating under `mode`.
    #[must_use]
    pub fn new(mode: ReplayMode) -> PacketBatch {
        PacketBatch::with_capacity(mode, 0)
    }

    /// Creates an empty batch with room for `n` packets.
    #[must_use]
    pub fn with_capacity(mode: ReplayMode, n: usize) -> PacketBatch {
        PacketBatch {
            mode,
            packets: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
        }
    }

    /// Builds a batch from pre-assembled wire buffers.
    #[must_use]
    pub fn from_packets(mode: ReplayMode, packets: Vec<Vec<u8>>) -> PacketBatch {
        let slots = vec![ParsedSlot::Pending; packets.len()];
        PacketBatch {
            mode,
            packets,
            slots,
        }
    }

    /// Convenience: a batch holding exactly one packet (the border
    /// router's per-packet wrappers run one through the batched pipeline).
    #[must_use]
    pub fn of_one(mode: ReplayMode, packet: Vec<u8>) -> PacketBatch {
        PacketBatch::from_packets(mode, vec![packet])
    }

    /// Appends a packet; its slot starts [`ParsedSlot::Pending`].
    pub fn push(&mut self, packet: Vec<u8>) {
        self.packets.push(packet);
        self.slots.push(ParsedSlot::Pending);
    }

    /// The replay mode this batch is parsed under.
    #[must_use]
    pub fn mode(&self) -> ReplayMode {
        self.mode
    }

    /// Number of packets in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` if the batch holds no packets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Parses every [`ParsedSlot::Pending`] header in the batch — the
    /// "parse once per batch" stage. Already-parsed slots are left alone,
    /// so calling this again after a `push` only parses the new packets.
    pub fn parse_headers(&mut self) {
        for (packet, slot) in self.packets.iter().zip(self.slots.iter_mut()) {
            if *slot != ParsedSlot::Pending {
                continue;
            }
            *slot = match ApnaHeader::parse(packet, self.mode) {
                Ok((header, _payload)) => ParsedSlot::Parsed {
                    header,
                    payload_start: self.mode.header_len(),
                },
                Err(_) => ParsedSlot::Malformed,
            };
        }
    }

    /// Forgets all parse results (used by benchmarks to re-measure the
    /// full pipeline including the parse stage).
    pub fn clear_parsed(&mut self) {
        for slot in &mut self.slots {
            *slot = ParsedSlot::Pending;
        }
    }

    /// The parse slot of packet `i`. Out-of-range indices read as
    /// [`ParsedSlot::Malformed`] — there is no packet there to forward.
    #[must_use]
    pub fn slot(&self, i: usize) -> ParsedSlot {
        self.slots.get(i).copied().unwrap_or(ParsedSlot::Malformed)
    }

    /// The parsed header of packet `i`, if parsing succeeded.
    #[must_use]
    pub fn header(&self, i: usize) -> Option<&ApnaHeader> {
        match self.slots.get(i) {
            Some(ParsedSlot::Parsed { header, .. }) => Some(header),
            _ => None,
        }
    }

    /// The payload bytes of packet `i`, if parsing succeeded.
    #[must_use]
    pub fn payload(&self, i: usize) -> Option<&[u8]> {
        match self.slots.get(i) {
            Some(ParsedSlot::Parsed { payload_start, .. }) => {
                self.packets.get(i).and_then(|p| p.get(*payload_start..))
            }
            _ => None,
        }
    }

    /// The raw wire bytes of packet `i` (empty if out of range).
    #[must_use]
    pub fn bytes(&self, i: usize) -> &[u8] {
        self.packets.get(i).map_or(&[], Vec::as_slice)
    }

    /// Consumes the batch, returning the owned wire buffers (for
    /// forwarding packets that survived processing).
    #[must_use]
    pub fn into_packets(self) -> Vec<Vec<u8>> {
        self.packets
    }

    /// Iterates `(index, slot)` over the batch.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, ParsedSlot)> + '_ {
        self.slots.iter().copied().enumerate()
    }

    /// Iterates `(index, header, payload)` over every successfully parsed
    /// packet — the working set of each batched pipeline stage.
    pub fn parsed(&self) -> impl Iterator<Item = (usize, &ApnaHeader, &[u8])> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| match slot {
                ParsedSlot::Parsed {
                    header,
                    payload_start,
                } => {
                    let payload = self.packets.get(i).and_then(|p| p.get(*payload_start..))?;
                    Some((i, header, payload))
                }
                _ => None,
            })
    }

    /// Collects the *source* EphIDs of all parsed packets into one
    /// contiguous array (plus the batch index each came from) — the exact
    /// shape the multi-block EphID authenticate/decrypt stage hands the
    /// batched cipher backend.
    #[must_use]
    pub fn parsed_src_ephids(&self) -> (Vec<usize>, Vec<crate::types::EphIdBytes>) {
        let mut idxs = Vec::with_capacity(self.packets.len());
        let mut ephids = Vec::with_capacity(self.packets.len());
        for (i, header, _) in self.parsed() {
            idxs.push(i);
            ephids.push(header.src.ephid);
        }
        (idxs, ephids)
    }

    /// Like [`PacketBatch::parsed_src_ephids`] but for *destination*
    /// EphIDs, restricted by `keep` (ingress only decrypts packets
    /// addressed to the local AS; transit traffic never reaches the
    /// cipher).
    #[must_use]
    pub fn parsed_dst_ephids(
        &self,
        mut keep: impl FnMut(&ApnaHeader) -> bool,
    ) -> (Vec<usize>, Vec<crate::types::EphIdBytes>) {
        let mut idxs = Vec::with_capacity(self.packets.len());
        let mut ephids = Vec::with_capacity(self.packets.len());
        for (i, header, _) in self.parsed() {
            if keep(header) {
                idxs.push(i);
                ephids.push(header.dst.ephid);
            }
        }
        (idxs, ephids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Aid, EphIdBytes, HostAddr};

    fn packet(tag: u8, payload: &[u8]) -> Vec<u8> {
        let header = ApnaHeader::new(
            HostAddr::new(Aid(1), EphIdBytes([tag; 16])),
            HostAddr::new(Aid(2), EphIdBytes([0x77; 16])),
        );
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn parse_once_fills_slots() {
        let mut batch = PacketBatch::from_packets(
            ReplayMode::Disabled,
            vec![packet(1, b"a"), packet(2, b"bb"), vec![0u8; 10]],
        );
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.slot(0), ParsedSlot::Pending);
        batch.parse_headers();
        assert!(batch.header(0).is_some());
        assert_eq!(batch.header(1).unwrap().src.ephid, EphIdBytes([2; 16]));
        assert_eq!(batch.payload(1).unwrap(), b"bb");
        assert_eq!(batch.slot(2), ParsedSlot::Malformed);
        assert!(batch.header(2).is_none());
        assert!(batch.payload(2).is_none());
    }

    #[test]
    fn incremental_push_parses_only_pending() {
        let mut batch = PacketBatch::new(ReplayMode::Disabled);
        batch.push(packet(1, b"x"));
        batch.parse_headers();
        let first = *batch.header(0).unwrap();
        batch.push(packet(2, b"y"));
        batch.parse_headers();
        // Slot 0 untouched, slot 1 now parsed.
        assert_eq!(*batch.header(0).unwrap(), first);
        assert_eq!(batch.header(1).unwrap().src.ephid, EphIdBytes([2; 16]));
    }

    #[test]
    fn nonce_mode_batch() {
        let header = ApnaHeader::new(
            HostAddr::new(Aid(1), EphIdBytes([1; 16])),
            HostAddr::new(Aid(2), EphIdBytes([2; 16])),
        )
        .with_nonce(99);
        let mut wire = header.serialize();
        wire.extend_from_slice(b"payload");
        let mut batch = PacketBatch::of_one(ReplayMode::NonceExtension, wire);
        batch.parse_headers();
        assert_eq!(batch.header(0).unwrap().nonce, Some(99));
        assert_eq!(batch.payload(0).unwrap(), b"payload");
    }

    #[test]
    fn clear_parsed_resets() {
        let mut batch = PacketBatch::of_one(ReplayMode::Disabled, packet(1, b"z"));
        batch.parse_headers();
        assert!(batch.header(0).is_some());
        batch.clear_parsed();
        assert_eq!(batch.slot(0), ParsedSlot::Pending);
    }

    #[test]
    fn into_packets_returns_buffers() {
        let p = packet(3, b"keep");
        let batch = PacketBatch::of_one(ReplayMode::Disabled, p.clone());
        assert_eq!(batch.into_packets(), vec![p]);
    }
}
