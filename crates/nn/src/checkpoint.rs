//! Compact binary checkpoints for [`StateDict`]s.
//!
//! The federated simulation "transmits" models as state dicts; this module
//! gives them a binary form that simulation checkpoints embed. The
//! format is deliberately simple and versioned:
//!
//! ```text
//! magic  "FZKT"          4 bytes
//! version u32 LE          4 bytes
//! n_params u32 LE
//! n_buffers u32 LE
//! per tensor: rank u32, dims [u32], data [f32 LE]
//! ```

use crate::{NnError, StateDict};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fedzkt_tensor::Tensor;

const MAGIC: &[u8; 4] = b"FZKT";
const VERSION: u32 = 1;

/// Serialize a state dict into the versioned binary format.
pub fn encode_state_dict(sd: &StateDict) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + sd.byte_size() + 16 * (sd.params.len() + 1));
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(sd.params.len() as u32);
    buf.put_u32_le(sd.buffers.len() as u32);
    for t in sd.params.iter().chain(&sd.buffers) {
        buf.put_u32_le(t.shape().len() as u32);
        for &d in t.shape() {
            buf.put_u32_le(d as u32);
        }
        for &v in t.data() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Deserialize a state dict produced by [`encode_state_dict`].
///
/// # Errors
/// Returns [`NnError::StateDictMismatch`] on bad magic, unsupported version
/// or a truncated buffer — the decoder never panics on malformed input.
pub fn decode_state_dict(mut data: &[u8]) -> Result<StateDict, NnError> {
    let fail = |detail: &str| NnError::StateDictMismatch { detail: detail.to_string() };
    if data.remaining() < 16 {
        return Err(fail("buffer shorter than header"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(fail("bad magic"));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(fail(&format!("unsupported version {version}")));
    }
    let n_params = data.get_u32_le() as usize;
    let n_buffers = data.get_u32_le() as usize;
    // Every tensor needs at least its 4-byte rank, so a count the bytes
    // cannot hold is rejected before the tensor list is sized by it.
    if n_params + n_buffers > 1_000_000 || n_params + n_buffers > data.remaining() / 4 {
        return Err(fail("implausible tensor count"));
    }
    let mut tensors = Vec::with_capacity(n_params + n_buffers);
    for _ in 0..n_params + n_buffers {
        if data.remaining() < 4 {
            return Err(fail("truncated tensor header"));
        }
        let rank = data.get_u32_le() as usize;
        if rank > 8 || data.remaining() < 4 * rank {
            return Err(fail("implausible tensor rank"));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(data.get_u32_le() as usize);
        }
        // Checked before allocating: a crafted shape must not overflow the
        // element count or size a vector past the bytes actually present.
        let len = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| fail("tensor shape overflow"))?;
        if len > data.remaining() / 4 {
            return Err(fail("truncated tensor data"));
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(data.get_f32_le());
        }
        tensors.push(
            Tensor::from_vec(values, &shape)
                .map_err(|e| fail(&format!("tensor rebuild: {e}")))?,
        );
    }
    let buffers = tensors.split_off(n_params);
    Ok(StateDict { params: tensors, buffers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::seeded_rng;

    fn sample_sd() -> StateDict {
        let mut rng = seeded_rng(1);
        StateDict {
            params: vec![
                Tensor::randn(&[3, 4], &mut rng),
                Tensor::randn(&[7], &mut rng),
                Tensor::scalar(2.5),
            ],
            buffers: vec![Tensor::randn(&[2, 2, 2, 2], &mut rng)],
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let sd = sample_sd();
        let decoded = decode_state_dict(&encode_state_dict(&sd)).unwrap();
        assert_eq!(sd, decoded);
    }

    #[test]
    fn encoded_size_close_to_raw_bytes() {
        let sd = sample_sd();
        let encoded = encode_state_dict(&sd);
        assert!(encoded.len() >= sd.byte_size());
        assert!(encoded.len() < sd.byte_size() + 128, "excessive overhead");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut data = encode_state_dict(&sample_sd()).to_vec();
        data[0] = b'X';
        assert!(decode_state_dict(&data).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let mut data = encode_state_dict(&sample_sd()).to_vec();
        data[4] = 99;
        assert!(decode_state_dict(&data).is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let data = encode_state_dict(&sample_sd()).to_vec();
        // Any prefix must fail cleanly, never panic.
        for cut in 0..data.len() {
            assert!(decode_state_dict(&data[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn empty_state_dict_roundtrips() {
        let sd = StateDict { params: vec![], buffers: vec![] };
        assert_eq!(decode_state_dict(&encode_state_dict(&sd)).unwrap(), sd);
    }

    #[test]
    fn huge_shape_is_an_error_not_a_panic() {
        // FZKT v1, one param, no buffers, rank 2, dims [2^31, 2^31]: the
        // element count overflows 64-bit arithmetic once multiplied by 4.
        let mut blob = b"FZKT".to_vec();
        for word in [1u32, 1, 0, 2, 1 << 31, 1 << 31] {
            blob.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(blob.len(), 28);
        assert!(decode_state_dict(&blob).is_err());
        // A count that fits but claims more data than the buffer holds.
        let mut blob = b"FZKT".to_vec();
        for word in [1u32, 1, 0, 2, 1 << 16, 1 << 16] {
            blob.extend_from_slice(&word.to_le_bytes());
        }
        assert!(decode_state_dict(&blob).is_err());
    }
}
