// g++: 40
// Casts to a typedef name convert as casts to the type it names.
typedef int Int;

int main() {
  return (Int)2.5 * 10 + Int(2.5) * 10;
}
