//! E10 — crypto primitive costs (§V-A2 context: the prototype leans on
//! Curve25519/ed25519 + AES-NI; this measures our from-scratch substrate).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(20);

    let aes = apna_crypto::Aes128::new(&[7u8; 16]);
    let block = [0x42u8; 16];
    g.bench_function("aes128_encrypt_block", |b| {
        b.iter(|| black_box(aes.encrypt(black_box(&block))))
    });

    let cmac = apna_crypto::cmac::CmacAes128::new(&[7u8; 16]);
    for size in [128usize, 1518] {
        let msg = vec![0xAB; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("cmac_{size}B"), |b| {
            b.iter(|| black_box(cmac.mac(black_box(&msg))))
        });
    }

    // Seal and open at the harness's packet sizes (64 B / 1400 B trips) plus
    // the historical 512 B point, on the auto-selected backends and on the
    // pinned software pair (bitsliced AES + portable GHASH).
    let gcms = [
        ("", apna_crypto::AesGcm128::new(&[7u8; 16])),
        ("_soft", apna_crypto::AesGcm128::new_software(&[7u8; 16])),
    ];
    for (suffix, gcm) in &gcms {
        for size in [64usize, 512, 1400] {
            let pt = vec![0xCD; size];
            let sealed = gcm.seal(&[1; 12], b"apna-gw", &pt);
            g.throughput(Throughput::Bytes(size as u64));
            g.bench_function(format!("gcm_seal_{size}B{suffix}"), |b| {
                b.iter(|| black_box(gcm.seal(&[1; 12], b"apna-gw", black_box(&pt))))
            });
            g.bench_function(format!("gcm_open_{size}B{suffix}"), |b| {
                b.iter(|| black_box(gcm.open(&[1; 12], b"apna-gw", black_box(&sealed)).is_ok()))
            });
        }
    }

    let kb = vec![0u8; 1024];
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sha256_1KiB", |b| {
        b.iter(|| black_box(apna_crypto::sha2::Sha256::digest(black_box(&kb))))
    });

    g.throughput(Throughput::Elements(1));
    g.bench_function("x25519_dh", |b| {
        b.iter(|| {
            black_box(apna_crypto::x25519(
                black_box([9u8; 32]),
                apna_crypto::X25519_BASEPOINT,
            ))
        })
    });

    let sk = apna_crypto::SigningKey::from_seed(&[1u8; 32]);
    let vk = sk.verifying_key();
    let msg = [0u8; 200];
    let sig = sk.sign(&msg);
    g.bench_function("ed25519_sign_200B", |b| b.iter(|| black_box(sk.sign(&msg))));
    g.bench_function("ed25519_verify_200B", |b| {
        b.iter(|| black_box(vk.verify(&msg, &sig).is_ok()))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
